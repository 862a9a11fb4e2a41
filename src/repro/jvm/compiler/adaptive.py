"""The adaptive optimization system (AOS).

"Later, when a method is labeled 'hot' by the adaptive system, the virtual
machine determines if recompiling the method with higher (and costly)
optimization levels improves performance" (Section IV-A; the Arnold et al.
cost/benefit model of reference [25]).

Mechanics modeled:

* a timer-driven **sampler** attributes execution samples to methods in
  proportion to their execution weight;
* each sampling epoch, the **controller** estimates every sampled method's
  future execution time (assumed equal to its observed past time) and
  recompiles when the predicted saving of a higher optimization level
  exceeds that level's compile cost;
* accepted jobs go to a **compile queue** drained by the optimizing
  compiler running on its own thread, which the VM's scheduler interleaves
  with the application in quanta — exactly why the paper instruments Jikes
  in the thread scheduler rather than at component entry/exit
  (Section IV-C).
"""

from dataclasses import dataclass

import numpy as np

from repro.jvm.compiler.optimizing import OPT_FIXED_INSTR, OPT_LEVELS

#: AOS sampling period (Jikes samples on the 10 ms scheduler tick).
SAMPLE_PERIOD_S = 0.01

#: The controller discounts predicted future time to hedge misprediction.
FUTURE_DISCOUNT = 0.9

#: Effective compile throughput (native instructions per second) used by
#: the cost/benefit estimate; only the *ratio* of cost to benefit matters.
ASSUMED_COMPILE_IPS = 1.0e9


@dataclass
class CompileJob:
    """A queued recompilation decision."""

    method: object
    level: object
    predicted_benefit_s: float
    predicted_cost_s: float


class AdaptiveOptimizationSystem:
    """Sample-driven hotness detection + cost/benefit recompilation."""

    def __init__(self, method_table, rng, app_instr_per_second):
        self.method_table = method_table
        self.rng = rng
        #: Rough application speed, used to turn samples into seconds.
        self.app_instr_per_second = app_instr_per_second
        self.queue = []
        self.total_samples = 0
        self.jobs_submitted = 0
        self._queued_ids = set()
        self._residue_s = 0.0
        #: Weights are immutable after table normalization; build the
        #: multinomial parameter vector once (as the float64 array the
        #: generator would convert a list to) instead of per epoch.
        self._weights = np.array(
            [m.weight for m in method_table.methods], dtype=np.float64
        )
        #: Indices of methods that have received at least one sample —
        #: the only ones the controller's cost/benefit scan can act on.
        self._sampled = set()

    def take_samples(self, elapsed_app_s):
        """Distribute the sampling epoch's ticks over methods by weight.

        Epochs shorter than the sampling period are carried over to the
        next call, so short scheduling quanta still accumulate samples.
        """
        self._residue_s += elapsed_app_s
        n_samples = int(self._residue_s / SAMPLE_PERIOD_S)
        if n_samples <= 0:
            return 0
        self._residue_s -= n_samples * SAMPLE_PERIOD_S
        counts = self.rng.multinomial(n_samples, self._weights)
        methods = self.method_table.methods
        hit = np.flatnonzero(counts)
        for i, count in zip(hit.tolist(), counts[hit].tolist()):
            methods[i].samples += count
        self._sampled.update(hit.tolist())
        self.total_samples += n_samples
        return n_samples

    def consider_recompilation(self):
        """Run the controller's cost/benefit model; enqueue winning jobs.

        Returns the list of newly queued :class:`CompileJob` objects.

        Only sampled methods are scanned (an unsampled method has
        ``past_s == 0`` and can never win), in table order, so the scan
        enqueues exactly the jobs a full sweep would.
        """
        new_jobs = []
        methods = self.method_table.methods
        for i in sorted(self._sampled):
            method = methods[i]
            quality = method.quality
            if quality <= 0.0 or id(method) in self._queued_ids:
                continue  # not compiled yet, or already queued
            past_s = method.samples * SAMPLE_PERIOD_S
            if past_s <= 0.0:
                continue
            future_s = past_s * FUTURE_DISCOUNT
            best = None
            for level in OPT_LEVELS:
                if level.quality <= quality:
                    continue
                speedup = level.quality / quality
                benefit_s = future_s * (1.0 - 1.0 / speedup)
                cost_instr = (
                    method.bytecode_bytes * level.instr_per_byte
                    + OPT_FIXED_INSTR
                )
                cost_s = cost_instr / ASSUMED_COMPILE_IPS
                gain = benefit_s - cost_s
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, level, benefit_s, cost_s)
            if best is not None:
                _, level, benefit_s, cost_s = best
                job = CompileJob(
                    method=method,
                    level=level,
                    predicted_benefit_s=benefit_s,
                    predicted_cost_s=cost_s,
                )
                self.queue.append(job)
                self._queued_ids.add(id(method))
                self.jobs_submitted += 1
                new_jobs.append(job)
        return new_jobs

    def next_job(self):
        """Pop the next compile job (highest predicted gain first)."""
        if not self.queue:
            return None
        self.queue.sort(
            key=lambda j: j.predicted_benefit_s - j.predicted_cost_s,
            reverse=True,
        )
        job = self.queue.pop(0)
        self._queued_ids.discard(id(job.method))
        return job

    @property
    def pending_jobs(self):
        return len(self.queue)
