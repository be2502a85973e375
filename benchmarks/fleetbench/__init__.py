"""Whole-lifecycle fleet benchmark (see README.md)."""
