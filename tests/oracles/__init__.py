"""Frozen reference implementations that the tests pin library code against."""
