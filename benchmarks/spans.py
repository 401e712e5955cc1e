"""In-memory spans around calls into solvcirc's public functions.

The traced mode replaces module attributes (and two class methods) with
wrappers that record a span per call: id, parent id, name, start, end and
the repetition it belongs to.  The chain oracle's gate kernel is wrapped
without a span; its wrapper only counts the gates applied.  ``from .x import y`` binds ``y`` in every
importing module, so a function is wrapped on each module that looks it up,
not only on the module that defines it.  Nothing is wrapped in the untraced
mode, and ``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from solvcirc import cli
from solvcirc import evolve as ev
from solvcirc import linalg as la
from solvcirc import oracle as orc
from solvcirc import renyi as ry


def _kraus_ops(tracer, args, result):
    tracer.add("channel.kraus_ops", len(result.kraus))


def _gate_applied(tracer, args, result):
    """One two-site gate on the chain statevector ``args[0]``.  Each reads
    and writes the whole state once, so the bytes it moves are at least
    amplitudes x 16 B x 2 (computed, not measured)."""
    amps = args[0].size
    tracer.add("oracle.gate_applications", 1)
    tracer.peak("oracle.amplitudes", amps)
    tracer.add("oracle.bytes_moved_computed", amps * 16 * 2)


def _transfer_dim(tracer, args, result):
    tracer.peak("renyi.transfer_dim_max", result.matrix.shape[0])


# (owner, attribute, span name or None for no span, result hook)
TARGETS = [
    (cli, "build_gate", "cli.config", None),
    (cli, "build_mps", "cli.config", None),
    (cli, "build_right_kets", "cli.config", None),
    (cli, "parse_observable", "cli.config", None),
    (cli, "random_gate", "gates.build", None),
    (cli, "ghz_cluster_family", "mps.build", None),
    (ev.EvolutionConfig, "__post_init__", "evolve.config", None),
    (ev, "brickwork_unitary", "evolve.brickwork_unitary", None),
    (ev, "step", "evolve.step", None),
    (ev.JointState, "invariant_residuals", "evolve.invariant_residuals", None),
    (ev, "entanglement_entropy", "evolve.entanglement_entropy", None),
    (ev, "local_expectation", "evolve.local_expectation", None),
    (ev, "kraus_from_mps", "channel.kraus_build", _kraus_ops),
    (ev, "kraus_from_two_site", "channel.kraus_build", _kraus_ops),
    (ev, "kraus_from_lpdo", "channel.kraus_build", _kraus_ops),
    (ev, "apply_channel", "channel.apply", None),
    (ev, "check_solvable_left", "solvable.check_left", None),
    (ev, "von_neumann_entropy", "linalg.von_neumann_entropy", None),
    (la, "von_neumann_entropy", "linalg.von_neumann_entropy", None),
    (ry, "von_neumann_entropy", "linalg.von_neumann_entropy", None),
    (la, "trace_distance", "linalg.trace_distance", None),
    (orc, "build_initial_chain", "oracle.initial_chain", None),
    (orc, "evolve_chain", "oracle.evolve_chain", None),
    (orc, "_apply_pair", None, _gate_applied),  # the name _period looks up
    (ry, "transfer_matrix", "renyi.transfer_build", _transfer_dim),
    (ry, "dominant_eigenvalue", "renyi.dominant_eig", None),
    (ry, "renyi_trace_via_transfer", "renyi.trace_via_transfer", None),
    (ry, "temporal_state_entropy", "renyi.temporal", None),
    (ry, "temporal_renyi_trace", "renyi.temporal", None),
]


class Tracer:
    """Spans and counts of one process; ``rep`` tags what is recorded next."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.rep = 0
        self.spans: list[list] = []  # [id, parent, name, start, end, rep]
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._paused = False

    def add(self, name: str, value: int):
        self.counts[self.rep][name] += value

    def peak(self, name: str, value: int):
        c = self.counts[self.rep]
        c[name] = max(c[name], value)

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None, self.rep]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    @contextmanager
    def paused(self):
        """Calls made inside record nothing (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            with self.span(name) if name else nullcontext():
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, out)
            return out
        return traced

    def install(self):
        for owner, attr, name, hook in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per repetition and span name: summed duration minus the time its
        direct children cover.  Spans of one thread nest, so the children of
        a span never overlap each other."""
        child_s = defaultdict(float)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, _, name, start, end, rep in self.spans:
            out[rep][name] += (end - start) - child_s[sid]
        return out

    def calls(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for _, _, name, _, _, rep in self.spans:
            out[rep][name] += 1
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, rep in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "run": self.run_id, "rep": rep}) + "\n")
