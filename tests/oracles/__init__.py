"""Frozen parity oracles that tests and benches measure the package against.

Each module is a snapshot of an earlier implementation, kept outside the
installed package because only tests and ``benchmarks/check_perf.py``
import it:

* :mod:`oracles.dsos` — the legacy in-process DSOS store
  (``HistStore`` queries must match it bit for bit);
* :mod:`oracles.features` — the pre-vectorisation feature kernels;
* :mod:`oracles.nn` — the pre-fast-path NN stack and VAE trainer;
* :mod:`oracles.workloads` — the pre-schema-refactor metric synthesizer.

pytest puts ``tests/`` on ``sys.path`` (it has no ``__init__.py``), so tests
import ``from oracles.dsos import DsosStore``; ``check_perf`` adds
``tests/`` itself.
"""
