# keeps the tests directory importable (oracles.py) via pytest's sys.path rule

try:
    from hypothesis import settings
except ImportError:  # the Hypothesis tests import it themselves and fail there
    pass
else:
    # the same examples on every run, however slow the machine
    settings.register_profile("fglcalc", derandomize=True, deadline=None)
    settings.load_profile("fglcalc")
