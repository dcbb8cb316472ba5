"""Outside-in span tracing for the speechprint benchmark.

The tracer replaces public functions of each layer with timing wrappers,
from the benchmark's own code: a module-level function is replaced in
every ``speechprint`` module that bound it by name, a method on its
class. Nothing inside ``src/`` is edited, and :meth:`Tracer.uninstall`
restores every original.

A span records its name, start, end, parent span and operation id. Spans
stay in memory, one list per thread, and are written out once when the
run ends. Layer metrics are derived from them afterwards: a span's self
time is its duration minus the durations of its direct children, which on
one thread are nested and never overlap.
"""

import itertools
import sys
import threading
import time
from collections import defaultdict

# the outermost of these on a thread is where fingerprinting work starts
FINGERPRINT_ROOTS = ("fingerprint.audio", "fingerprint.feed")


class _ThreadState:
    """One thread's finished spans, its open span ids and operation id.

    A span is stored when it ends, as a tuple of plain values: the garbage
    collector stops tracking such tuples, so a run's hundreds of
    thousands of spans do not slow the collections the program pays for.
    """

    __slots__ = ("spans", "stack", "next_id", "op")

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.op = None


class Tracer:
    """Collects spans from wrapped functions on every thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self.phase = "setup"
        # id(query list) -> duration of the query_batch call that answered it
        self._batch_time: dict[int, float] = {}

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state.spans)
            return state

    def set_op(self, op_id) -> None:
        """Tags every later span of this thread with ``op_id``."""
        self._state().op = op_id

    def begin(self, name: str) -> tuple:
        """Opens a span on this thread; pass the result to :meth:`end`."""
        state = self._state()
        sid = state.next_id
        state.next_id = sid + 1
        parent = state.stack[-1] if state.stack else -1
        state.stack.append(sid)
        return (sid, name, time.perf_counter(), parent, state.op, self.phase)

    def end(self, token: tuple, amount: float = 0.0) -> None:
        sid, name, start, parent, op, phase = token
        end = time.perf_counter()
        state = self._local.state
        state.stack.pop()
        state.spans.append((sid, name, start, end, parent, op, phase, amount))

    def wrap(self, name: str, fn, amount=None):
        """Returns ``fn`` wrapped in a span; ``amount(args, result)`` sizes it.

        This is the hot path of a traced run (about 850 spans per query),
        so it does the work of :meth:`begin` and :meth:`end` inline.
        """
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            sid = state.next_id
            state.next_id = sid + 1
            parent = stack[-1] if stack else -1
            op, phase = state.op, tracer.phase
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                state.spans.append((sid, name, start, clock(), parent, op, phase, 0.0))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            size = 0.0 if amount is None else amount(args, result)
            state.spans.append((sid, name, start, end, parent, op, phase, size))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, amount=None) -> None:
        """Wraps a module function wherever a speechprint module bound it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, amount)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "speechprint" and mod is not None:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, traced)

    def patch_binding(self, module, attr: str, name: str) -> None:
        """Wraps one module's binding only (where one name means one job)."""
        self._set(module, attr, self.wrap(name, getattr(module, attr)))

    def patch_method(self, cls, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
        else:
            self._set(cls, attr, self.wrap(name, raw))

    def install(self) -> None:
        """Wraps the public functions of every measured layer."""
        from speechprint import audio, fingerprint, hashing, index, pipeline, server, spectral

        self.patch_function(audio, "decode_wav", "audio.decode")
        self.patch_method(pipeline.WavStreamDecoder, "feed", "audio.decode")
        self.patch_function(audio, "resample", "audio.resample")
        self.patch_method(spectral.FrameTransform, "column", "spectral.column")
        self.patch_function(
            fingerprint, "fingerprint_audio", "fingerprint.audio",
            lambda args, _r: args[0].duration_seconds,
        )
        self._patch_feed(fingerprint.StreamingFingerprinter)
        self.patch_function(fingerprint, "haar2d", "fingerprint.haar")
        self.patch_function(fingerprint, "top_t_signs", "fingerprint.topt")
        self.patch_method(fingerprint.MinHasher, "signature", "fingerprint.minhash")
        self.patch_function(hashing, "fnv1a64_rows", "hashing.rows")
        # fnv1a64 also digests configs; only the index's binding is the checksum
        self.patch_binding(index, "fnv1a64", "hashing.checksum")
        cls = index.RetrievalIndex
        self.patch_method(cls, "query", "index.query")
        self._patch_batch(cls)
        self.patch_method(cls, "enroll", "index.enroll")
        self.patch_method(cls, "find_duplicates", "index.dedup")
        self.patch_method(cls, "save", "index.save")
        self.patch_method(cls, "load", "index.load")
        self.patch_method(pipeline.Pipeline, "enroll_file", "pipeline.enroll_file")
        self._patch_submit(server.QueryBatcher)
        self._patch_session(server.PipelineServer)

    def _patch_feed(self, cls) -> None:
        """StreamingFingerprinter.feed, sized by the audio it consumed."""
        original = cls.__dict__["feed"]
        tracer = self

        def feed(streamer, samples):
            before = streamer.seconds_consumed
            span = tracer.begin("fingerprint.feed")
            try:
                return original(streamer, samples)
            finally:
                tracer.end(span, streamer.seconds_consumed - before)

        self._set(cls, "feed", feed)

    def _patch_batch(self, cls) -> None:
        """query_batch, sized by its query count; remembers its duration."""
        original = cls.__dict__["query_batch"]
        tracer = self

        def query_batch(index, queries, *args, **kwargs):
            span = tracer.begin("index.query_batch")
            t0 = time.perf_counter()
            try:
                return original(index, queries, *args, **kwargs)
            finally:
                took = time.perf_counter() - t0
                with tracer._lock:
                    for q in queries:
                        tracer._batch_time[id(q)] = took
                tracer.end(span, len(queries))

        self._set(cls, "query_batch", query_batch)

    def _patch_submit(self, cls) -> None:
        """QueryBatcher.submit; its wait is its time minus its batch call."""
        original = cls.__dict__["submit"]
        tracer = self

        def submit(batcher, subs):
            span = tracer.begin("server.submit")
            t0 = time.perf_counter()
            try:
                return original(batcher, subs)
            finally:
                took = time.perf_counter() - t0
                with tracer._lock:
                    batch = tracer._batch_time.pop(id(subs), 0.0)
                tracer.end(span, took - batch)

        self._set(cls, "submit", submit)

    def _patch_session(self, cls) -> None:
        """One server session per connection; its spans share an op id."""
        original = cls.finish_request  # inherited from socketserver
        tracer = self
        counter = itertools.count()

        def finish_request(server, request, client_address):
            tracer.set_op(("server", next(counter)))
            span = tracer.begin("server.session")
            try:
                return original(server, request, client_address)
            finally:
                tracer.end(span)

        self._undo.append((cls, "finish_request", cls.__dict__.get("finish_request")))
        cls.finish_request = finish_request

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def all_spans(self) -> list[list]:
        """Every span of every thread, in the order they ended, as
        [name, start, end, parent id, op, phase, amount, self seconds,
        thread, outermost fingerprinting span?, parent name, span id].
        """
        out = []
        with self._lock:
            threads = list(self._threads)
        for tid, spans in enumerate(threads):
            by_id = {span[0]: span for span in spans}
            child_time: dict[int, float] = {}
            for span in spans:
                child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]
            for sid, name, start, end, parent, op, phase, amount in spans:
                out.append([
                    name, start, end, parent, op, phase, amount,
                    end - start - child_time.get(sid, 0.0), tid,
                    _fingerprint_root(by_id, name, parent),
                    by_id[parent][1] if parent in by_id else "", sid,
                ])
        return out


def _fingerprint_root(by_id: dict, name: str, parent: int) -> bool:
    """True for a fingerprinting span with no fingerprinting ancestor."""
    if name not in FINGERPRINT_ROOTS:
        return False
    while parent in by_id:
        if by_id[parent][1] in FINGERPRINT_ROOTS:
            return False
        parent = by_id[parent][4]
    return True


def write_spans(path, spans: list[list]) -> None:
    """Writes spans from :meth:`Tracer.all_spans`, one tab-separated line each."""
    header = "thread\tspan\tparent\tname\tstart_s\tend_s\top\tphase\tamount\tself_s\n"
    with open(path, "w", encoding="utf-8") as out:
        out.write(header)
        out.writelines(
            f"{s[8]}\t{s[11]}\t{s[3]}\t{s[0]}\t{s[1]:.9f}\t{s[2]:.9f}\t{s[4]}\t"
            f"{s[5]}\t{s[6]:.6f}\t{s[7]:.9f}\n"
            for s in spans
        )


def summarize(spans: list[list], phase: str | None = "run") -> dict:
    """Per span name (and per "name<parent" pair): call count, total and
    self seconds, summed amount, and the amount and total seconds of the
    outermost fingerprinting spans.

    ``phase`` None takes spans of every phase.
    """
    table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0, 0.0])
    for s in spans:
        if phase is not None and s[5] != phase:
            continue
        for key in (s[0], f"{s[0]}<{s[10]}"):
            _add(table[key], s)
    return {
        name: {"calls": int(r[0]), "total_s": r[1], "self_s": r[2],
               "amount": r[3], "root_amount": r[4], "root_total_s": r[5]}
        for name, r in table.items()
    }


def _add(row: list, s: list) -> None:
    row[0] += 1
    row[1] += s[2] - s[1]
    row[2] += s[7]
    row[3] += s[6]
    if s[9]:
        row[4] += s[6]
        row[5] += s[2] - s[1]
