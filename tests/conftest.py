def pytest_configure(config):
    # a test that leaves a file or a socket unclosed fails; kept out of pyproject.toml, whose
    # pytest options also reach the benchmark's own tests
    for spec in ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"):
        config.addinivalue_line("filterwarnings", spec)
