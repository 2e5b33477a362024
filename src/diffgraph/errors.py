"""Exceptions shared by every module of the package."""


class ParameterError(ValueError):
    """Raised when a word, rotation amount or variant parameter is out of range."""
