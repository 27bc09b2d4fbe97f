"""Crossbar allocators.

The paper's tile crossbars use a *separable output-first* allocator (Becker
& Dally) with equal priority for all VCs, including the stashing S and R
VCs (Section V).  Separable output-first means: each crossbar output
round-robins over the (input, VC) pairs requesting it; then each input
round-robins over the outputs that granted it; surviving grants win.
"""

from __future__ import annotations

from repro.switch.arbiters import RoundRobinArbiter

__all__ = ["SeparableOutputFirstAllocator"]


class SeparableOutputFirstAllocator:
    """Matches (input, vc) requests to crossbar outputs, one winner per
    input and per output per invocation."""

    def __init__(self, num_inputs: int, num_vcs: int, num_outputs: int) -> None:
        self.num_inputs = num_inputs
        self.num_vcs = num_vcs
        self.num_outputs = num_outputs
        # stage 1: one arbiter per output over (input, vc) request slots
        self._out_arbiters = [
            RoundRobinArbiter(num_inputs * num_vcs) for _ in range(num_outputs)
        ]
        # stage 2: one arbiter per input over outputs that granted it
        self._in_arbiters = [RoundRobinArbiter(num_outputs) for _ in range(num_inputs)]

    def allocate(
        self, requests: list[tuple[int, int, int]]
    ) -> list[tuple[int, int, int]]:
        """``requests`` is a list of (input, vc, output) triples; returns
        the accepted subset (at most one per input, one per output)."""
        if not requests:
            return []
        num_vcs = self.num_vcs
        if len(requests) == 2:
            r1, r2 = requests
            if r1[0] != r2[0] and r1[2] != r2[2]:
                # two requests with distinct inputs and outputs never
                # conflict: each stage grants both, same as pick() would
                for inp, vc, out in requests:
                    out_arb = self._out_arbiters[out]
                    out_arb._next = (inp * num_vcs + vc + 1) % out_arb.n
                    in_arb = self._in_arbiters[inp]
                    in_arb._next = (out + 1) % in_arb.n
                return requests

        # Stage 1: each output grants one (input, vc) — the requester at
        # the smallest cyclic distance from the arbiter's rotating
        # pointer (the inlined equivalent of RoundRobinArbiter.pick;
        # distances are distinct so first-minimum tie-breaking matches).
        out_arbiters = self._out_arbiters
        in_arbiters = self._in_arbiters
        stage1: dict[int, tuple[int, int, int]] = {}  # out -> (dist, inp, vc)
        for inp, vc, out in requests:
            arb = out_arbiters[out]
            d = (inp * num_vcs + vc - arb._next) % arb.n
            cur = stage1.get(out)
            if cur is None or d < cur[0]:
                stage1[out] = (d, inp, vc)

        # Stage 2: each input accepts one grant, same rotating-pick rule.
        stage2: dict[int, tuple[int, int, int]] = {}  # inp -> (dist, vc, out)
        for out, (_d, inp, vc) in stage1.items():
            arb = out_arbiters[out]
            arb._next = (inp * num_vcs + vc + 1) % arb.n
            in_arb = in_arbiters[inp]
            d = (out - in_arb._next) % in_arb.n
            cur = stage2.get(inp)
            if cur is None or d < cur[0]:
                stage2[inp] = (d, vc, out)

        accepted: list[tuple[int, int, int]] = []
        for inp, (_d, vc, out) in stage2.items():
            in_arb = in_arbiters[inp]
            in_arb._next = (out + 1) % in_arb.n
            accepted.append((inp, vc, out))
        return accepted
