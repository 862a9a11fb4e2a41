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


def best_recompilation(quality, samples, bytecode_bytes):
    """The cost/benefit model for one compiled method: its most
    profitable ``(gain, level, benefit_s, cost_s)``, or ``None`` when
    no optimization level pays for itself."""
    past_s = samples * SAMPLE_PERIOD_S
    if past_s <= 0.0:
        return None
    future_s = past_s * FUTURE_DISCOUNT
    best = None
    for level in OPT_LEVELS:
        if level.quality <= quality:
            continue
        speedup = level.quality / quality
        benefit_s = future_s * (1.0 - 1.0 / speedup)
        cost_instr = bytecode_bytes * level.instr_per_byte + OPT_FIXED_INSTR
        cost_s = cost_instr / ASSUMED_COMPILE_IPS
        gain = benefit_s - cost_s
        if gain > 0 and (best is None or gain > best[0]):
            best = (gain, level, benefit_s, cost_s)
    return best


class AdaptiveOptimizationSystem:
    """Sample-driven hotness detection + cost/benefit recompilation.

    The samples and the queued flags are columns of the method table.
    """

    def __init__(self, method_table, rng, app_instr_per_second):
        self.method_table = method_table
        self.rng = rng
        #: Rough application speed, used to turn samples into seconds.
        self.app_instr_per_second = app_instr_per_second
        self.queue = []
        self.total_samples = 0
        self.jobs_submitted = 0
        self._residue_s = 0.0
        #: Methods whose cost/benefit inputs may have changed since the
        #: last scan (see :meth:`consider_recompilation`).
        self._dirty = np.zeros(len(method_table), dtype=bool)

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
        cols = self.method_table.columns
        counts = self.rng.multinomial(n_samples, cols.weight)
        cols.samples += counts
        self._dirty |= counts > 0
        self.total_samples += n_samples
        return n_samples

    def consider_recompilation(self):
        """Run the controller's cost/benefit model; enqueue winning jobs.

        Returns the list of newly queued :class:`CompileJob` objects.

        Only *dirty* methods are evaluated, in table order: those
        sampled since the last scan, those dequeued since the last
        scan, and those sampled but not yet compiled.  Every other
        method is unsampled (it can never win), still queued, or has
        the samples and quality that gave it no job last time — a
        method's quality moves only when it is first compiled or when
        its dequeued job runs.  So the scan enqueues exactly the jobs a
        full sweep would.
        """
        cols = self.method_table.columns
        quality = cols.quality
        compiled = quality > 0.0
        rows = np.flatnonzero(self._dirty & compiled & ~cols.queued)
        self._dirty &= ~compiled
        new_jobs = []
        methods = self.method_table.methods
        for i, q, n, size in zip(rows.tolist(), quality[rows].tolist(),
                                 cols.samples[rows].tolist(),
                                 cols.bytecode_bytes[rows].tolist()):
            best = best_recompilation(q, n, size)
            if best is None:
                continue
            _, level, benefit_s, cost_s = best
            job = CompileJob(
                method=methods[i],
                level=level,
                predicted_benefit_s=benefit_s,
                predicted_cost_s=cost_s,
            )
            self.queue.append(job)
            cols.queued[i] = True
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
        row = job.method.row
        self.method_table.columns.queued[row] = False
        self._dirty[row] = True
        return job
