"""Session-aware search toolkit: indexing, session replay, re-ranking, evaluation."""

__version__ = "0.1.0"
