(** Sliding-window sink: time-bucketed counters and histograms keyed to the
    {e virtual} clock.

    A fixed ring of [buckets] buckets, each [width] virtual cycles wide.
    Rotation is driven by the timestamps events already carry — when a
    recorded [ts] crosses the current bucket's end the ring steps forward
    (clearing re-used buckets) — so the window needs no wall clock, never
    advances the virtual clock, and two identical runs age their buckets
    identically. The record path is allocation-free (flat preallocated int
    arrays); queries merge the last N buckets on read.

    Per-kind counts and arg sums are kept for every {!Trace.kind}; the
    latency kinds [Emc_entry], [Req_end], [Tdcall] and [Vmcall]
    additionally keep per-bucket log2 histograms with min/max, enabling
    {!percentile} and {!over}.

    Nothing outside the tests reads a window after recording: the
    benchmark's telemetry workload only creates and records into one. *)

type t

val create : width:int -> buckets:int -> unit -> t
(** [width] is virtual cycles per bucket, [buckets] the ring size, so the
    window spans [width * buckets] cycles. *)

val attach : Emitter.t -> t -> t
(** Attach as a sink: every emitted event is recorded. *)

val record : t -> Trace.kind -> ts:int -> arg:int -> unit
(** Record one event directly (drivers that attribute events to per-tenant
    windows themselves feed this instead of attaching). Allocation-free. *)

(** {2 Queries over the last [windows] buckets (current included)}

    [windows] defaults to the whole ring and is capped at the ring size. *)

val count : t -> ?windows:int -> Trace.kind -> int
val arg_sum : t -> ?windows:int -> Trace.kind -> int

val total_count : t -> Trace.kind -> int
(** Lifetime count, unaffected by bucket aging. *)

val percentile : t -> ?windows:int -> Trace.kind -> p:float -> int
(** Merge-on-read percentile over the last N windows, with
    {!Histogram.percentile}'s semantics: [p] is clamped to [[0, 1]], the
    estimate is clamped to the observed [min, max] of the merged span, and
    an empty span returns 0. Raises [Invalid_argument] for a kind without
    a histogram. *)

val over : t -> ?windows:int -> Trace.kind -> threshold:int -> int
(** Samples whose arg exceeded [threshold], estimated from the log2
    buckets: counts buckets entirely above the threshold, so the answer is
    conservative within the histogram's factor-of-two band. Raises
    [Invalid_argument] for a kind without a histogram. *)
