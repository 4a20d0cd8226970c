import dataclasses


def counting(F, rows):
    """F whose evaluators (f, nu, jac_f and jac_nu, those it has) each
    append the row count of every call to rows[its name], a
    defaultdict(list)."""
    def counted(key, fun):
        def call(x):
            rows[key].append(x.shape[0])
            return fun(x)
        return call

    return dataclasses.replace(F, **{
        key: counted(key, getattr(F, key))
        for key in ("f", "nu", "jac_f", "jac_nu")
        if getattr(F, key) is not None})


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance PASS/FAIL lines after the run, outside capture."""
    try:
        from test_acceptance import REPORT_LINES
    except ImportError:
        return
    if REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in REPORT_LINES:
            terminalreporter.write_line(line)
