"""The benchmark's own code: programs, generators, drivers, the core
clock and the span recorder.  ``perf/run.py`` puts ``perf/`` on the
path; nothing here is imported by the program under test."""
