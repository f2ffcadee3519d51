"""The repository's benchmark: outside-in workloads over the public API.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` measures one workload (see ``perfbench/README.md``).
Nothing here is imported by the program; the benchmark drives
:class:`repro.Session` and a ``repro serve`` daemon from the outside and
records spans around public calls from its own files.
"""
