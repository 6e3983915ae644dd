"""Outside-in span recording for the benchmark's traced runs.

The package carries no instrumentation.  For a traced run the benchmark
replaces public functions on the package's modules with wrappers that record
a span and call straight through, and puts the originals back when the run
ends.  A span is (name, start, end, parent index, root index).  Spans are
recorded only while a root is open; a root is one training step, one
evaluation call or one EM iteration, and its index is the step, eval or
iteration id every span under it carries.  Spans stay in memory and are
reduced to per-root call counts and self times at the end of the run.
"""

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

# Public functions wrapped in a traced run, as (module, function).
TRACED = (
    ("nnet", "forward"),
    ("nnet", "backward"),
    ("infnet", "encode"),
    ("infnet", "gmm_scores"),
    ("infnet", "gmm_reconstruct"),
    ("infnet", "gmm_log_z_factor_grads"),
    ("infnet", "gmm_pathwise_factor_vjp"),
    ("infnet", "lds_filter"),
    ("infnet", "lds_reconstruct"),
    ("infnet", "lds_log_z_factor_grads"),
    ("infnet", "lds_pathwise_factor_vjp"),
    ("models", "decode_loglik"),
    ("models", "log_prior_with_grads"),
    ("bound", "bound_gradients"),
    ("bound", "bound_estimate"),
    ("updates", "sample_gmm_params"),
    ("updates", "conjugate_gmm_message"),
    ("updates", "natural_gradient_step"),
    ("updates", "adagrad_step"),
    ("linalg", "cholesky_spd"),
    ("baselines", "lds_em_filter"),
    ("baselines", "lds_em_smooth"),
)

# Root kinds: a structured training step, an evaluation call, an EM iteration.
ROOT_KINDS = ("step", "eval", "iter")


class Recorder:
    """Spans grouped under roots; cheap enough to leave on for a whole run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, root]
        self.roots = []  # (kind, span index)
        self._stack = []

    def _enter(self, name, root):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, kind, name):
        """Open one step, eval or iteration; every span inside carries its id."""
        if kind not in ROOT_KINDS:
            raise ValueError(f"unknown root kind {kind!r}")
        idx = len(self.spans)
        self.roots.append((kind, idx))
        self._enter(name, idx)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._enter(name, self.spans[self._stack[0]][4])
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return traced

    def summary(self):
        """{(kind, name): (calls per root, self ms per root)} over every root kind seen."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        kind_of = {idx: kind for kind, idx in self.roots}
        n_roots = Counter(kind for kind, _ in self.roots)
        calls = Counter()
        self_s = defaultdict(float)
        for i, (name, start, end, _, root) in enumerate(self.spans):
            key = (kind_of[root], name)
            calls[key] += 1
            self_s[key] += end - start - child[i]
        return {
            key: (calls[key] / n_roots[key[0]], 1e3 * self_s[key] / n_roots[key[0]])
            for key in calls
        }


@contextlib.contextmanager
def installed(recorder):
    """Wrap every TRACED function for the duration of the block, then restore."""
    saved = []
    try:
        for mod_name, fn_name in TRACED:
            module = importlib.import_module(f"structvi.{mod_name}")
            original = getattr(module, fn_name)
            saved.append((module, fn_name, original))
            setattr(module, fn_name, recorder.wrap(original, f"{mod_name}.{fn_name}"))
        yield recorder
    finally:
        for module, fn_name, original in reversed(saved):
            setattr(module, fn_name, original)
