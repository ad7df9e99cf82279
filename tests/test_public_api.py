"""The public package surface: exports, version, docstring examples."""

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_version():
    assert repro.__version__ == "1.0.0"


def test_subpackage_surfaces():
    import repro.bench.experiments as experiments
    import repro.compiler as compiler
    import repro.ep as ep
    import repro.megakv as megakv
    import repro.nvm as nvm
    import repro.workloads as workloads

    for module in (compiler, ep, megakv, workloads):
        for name in module.__all__:
            assert getattr(module, name) is not None, (module, name)
    for name in nvm.__all__:
        assert getattr(nvm, name) is not None, name
    assert len(experiments.EXPERIMENTS) == 16


def test_nothing_in_the_package_imports_multiprocessing():
    """Every block runs in the launching process: no module under
    ``src/repro`` forks workers or maps shared-memory segments."""
    import ast
    from pathlib import Path

    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "multiprocessing"
                   for name in names):
                offenders.append(f"{path}:{node.lineno}")
    assert not offenders, offenders


def test_package_docstring_quick_tour_runs():
    """The __init__ docstring's tour must actually work."""
    device = repro.Device()
    work = repro.workloads.TMMWorkload(scale="tiny")
    kernel = work.setup(device)
    lp = repro.LPRuntime(device, repro.LPConfig.paper_best())
    lp_kernel = lp.instrument(kernel)
    result = device.launch(lp_kernel)
    work.verify(device)
    assert result.n_completed == kernel.launch_config().n_blocks


def test_readme_check_case_snippet_runs():
    """README's "for your own kernels" snippet, at a small budget."""
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (snippet,) = [block for block in
                  re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
                  if "check_case" in block]
    assert "budget=1000" in snippet
    exec(snippet.replace("budget=1000", "budget=40"), {})
