"""Env-registry compliant twin: registered names, registry accessors."""

from repro.utils import env


def trace_buffer():
    return env.int_value("MAS_TRACE_BUFFER")


def suites_file():
    return env.value("MAS_SUITES_FILE")
