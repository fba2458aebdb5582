from hypothesis import settings

# Deadlines would time the machine, not the code, so no profile has one.
# "ci" also fixes the examples, so a CI failure reproduces from its log;
# select it with --hypothesis-profile=ci.
settings.register_profile("dev", deadline=None)
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("dev")
