"""Session setup shared by the test modules."""

import warnings

# When a property fails, Hypothesis's pytest plugin imports
# hypothesis.extra._patching to write a patch file, and libcst, which that
# module imports, emits a DeprecationWarning. Under filterwarnings = error
# that warning would stop the session with an INTERNALERROR and hide every
# later test, so the module is imported once here with the warning ignored.
# entdyn's own warnings stay errors.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
