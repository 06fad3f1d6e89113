"""Computations made apart from ``haar_riesz`` that the benchmark checks its
outputs against.  They read only plain data (rational endpoints, (level,
index) pairs, coefficients) and import nothing from the package under test.
"""
