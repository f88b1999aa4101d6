"""Spans around the calls into the gcflag layers, recorded from outside.

Tracer.install() replaces every public function of the layer modules, and
a few hot methods, by a wrapper that records a span: name, start, end and
the enclosing span.  Self time (a span's duration minus its child spans)
and call counts are accumulated for every call; the spans themselves are
kept in memory up to SPAN_CAP and written out by dump().

Run as a script it traces one gc command:

    python3 bench/spans.py OUT.json polytope --flag "1,2|3" --lambda "2,0,-2"

The command's output and exit code are those of `python -m gcflag.cli`.
If the environment gives BENCH_SPAWN_T (a time.perf_counter() reading
taken by the parent just before it started this process), the time from
it to the end of `import gcflag.cli` is recorded as cli.startup.
"""

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("polytopes", "exactla", "potential", "system", "degeneration", "toda")
# Helpers called once per matrix entry or printed number: a wrapper would
# cost more than the work it times, so their time stays with the caller.
SKIP = {"exactla.to_fraction", "polytopes.frac_str", "polytopes.is_pinned"}
METHODS = {
    ("polytopes", "GCPolytope"): ("vertices", "contains", "contains_float", "interior_point"),
    ("potential", "LaurentPotential"): ("terms_at", "hessian", "gradient", "value"),
}
SPAN_CAP = 20000


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.dropped = 0
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self._ids = {}
        self._stack = []  # [span index, seconds covered by child spans]
        self._undo = []

    def _enter(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append([self._ids[name], None, None, parent])
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, start, end):
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if frame[0] >= 0:
            self.spans[frame[0]][1:3] = [start, end]

    def call(self, name, fn, /, *args, **kwargs):
        """Run fn inside a span called name."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame, start, time.perf_counter())

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def record(self, name, seconds):
        """Add a measured interval that has no span of its own."""
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += seconds
        st[2] += seconds

    def install(self):
        """Wrap the layer functions wherever gcflag modules refer to them."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules["gcflag." + layer]
            for attr, fn in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    wrapped[fn] = self.wrap(name, fn)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules["gcflag." + layer], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap("%s.%s" % (layer, meth), orig))
        for modname, mod in list(sys.modules.items()):
            if modname != "gcflag" and not modname.startswith("gcflag."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])

    def uninstall(self):
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "dropped_spans": self.dropped,
                    "stats": self.stats,
                },
                fh,
            )


def main(argv):
    out, cli_args = argv[0], argv[1:]
    import gcflag.cli

    tracer = Tracer()
    spawn = os.environ.get("BENCH_SPAWN_T")
    if spawn is not None:
        tracer.record("cli.startup", time.perf_counter() - float(spawn))
    tracer.install()
    try:
        return tracer.call("cli.main", gcflag.cli.main, cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
