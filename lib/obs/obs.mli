(** The unified observability subsystem: a typed, allocation-light event bus
    ({!Emitter}) over the {!Trace} taxonomy, with pluggable sinks — counters
    ({!Counter}), a bounded post-mortem ring ({!Ring}), latency histograms
    ({!Histogram}), virtual-clock sliding windows ({!Window}), relative-error
    quantile sketches ({!Sketch}), a Chrome-trace recorder ({!Chrome}), a
    cycle-attribution profiler ({!Attrib}) with a flamegraph exporter
    ({!Flame}) and a tamper-evident hash-chained audit log ({!Audit}) —
    plus an offline flight-recorder stack: a crash-safe binary journal
    ({!Journal}) whose {!Journal.replay} feeds recorded streams back
    through live sinks (the only producer of Chrome-trace and flamegraph
    files), with query ({!Query}), critical-path ({!Critical}) and
    run-diff ({!Diff}) engines built on it.

    Emission never advances the virtual clock: observability is free in
    simulated time, so calibrated results are identical with or without
    sinks attached. The stack emits through the per-machine emitter held by
    [Hw.Cpu.t]; every component that owns (or is passed) the CPU shares it. *)

module Trace = Trace
module Emitter = Emitter
module Counter = Counter
module Ring = Ring
module Histogram = Histogram
module Chrome = Chrome
module Attrib = Attrib
module Flame = Flame
module Audit = Audit
module Window = Window
module Journal = Journal
module Query = Query
module Critical = Critical
module Diff = Diff
module Sketch = Sketch

val with_span : Emitter.t -> now:(unit -> int) -> Trace.phase -> (unit -> 'a) -> 'a
(** [with_span emitter ~now phase f] emits [Span_begin phase], runs [f], and
    emits [Span_end phase] even when [f] raises. *)
