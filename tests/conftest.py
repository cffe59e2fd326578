import contextlib
import warnings

# A failing hypothesis test imports hypothesis.extra._patching to print its
# example; that imports libcst, whose mypy_extensions.TypedDict import warns,
# and pyproject.toml turns the DeprecationWarning into a pytest INTERNALERROR.
# Importing it once here, with that warning ignored, keeps the report.
with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
