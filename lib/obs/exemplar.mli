(** Tail-latency exemplar reservoir: per log2-latency band (the same
    banding as {!Histogram.bucket_of}), the single slowest request seen,
    carrying its {!Request} trace id, machine name, and — when a flight
    recorder is attached — the {!Journal} byte offset of the frame
    holding its request-end event. "p99 spiked" then resolves to a
    concrete replayable journaled request: the aggregator maps its
    merged quantile estimate to a band and exports that band's
    exemplar.

    Winners are chosen under a total order (latency descending, then
    trace id / machine / offset / ts ascending), so {!merge} is
    idempotent, commutative and associative and merged state is
    canonical for any merge order. *)

type t

type item = {
  i_latency : int;
  i_trace_id : int;
  i_machine : string;
  i_offset : int;  (** journal frame byte offset; -1 if not recording *)
  i_ts : int;  (** virtual timestamp of the request end *)
}

val n_bands : int

val band_of : int -> int
(** The band a latency lands in (= {!Histogram.bucket_of}). *)

val create : unit -> t

val record :
  t -> latency:int -> trace_id:int -> machine:string -> offset:int ->
  ts:int -> unit
(** Challenge the band's current exemplar; keep the winner. Writes into
    preallocated slots — allocation-free ([machine] is stored by
    reference; pass an existing string). *)

val merge : into:t -> t -> unit
(** Band-wise keep-the-winner. Raises [Invalid_argument] on
    self-merge. *)

val best : t -> band:int -> item option

val for_value : t -> int -> item option
(** The exemplar witnessing a latency estimate: its own band if
    occupied, else the nearest occupied band below, then above; [None]
    only if the reservoir is empty. *)
