(** Request-scoped causal tracing.

    A trace context ({!ctx}) is minted at the channel client and travels
    inside the sealed message header; every hop that decodes it brackets its
    work with [Req_begin]/[Req_end] marker events whose int argument is the
    packed context ({!pack}). A collector attached to one or more emitters
    ({!attach}) assembles the span stream between the markers into
    per-machine segments, and segments sharing a trace id into the
    request's cross-machine causal tree (the client-side segment, root bit
    set, is the root).

    Every request is collected: {!mint} sets the sampled bit, and every
    closed window is kept as a segment, so {!latency_percentile} is exact
    over the root segments. Collection never advances the virtual clock. *)

type ctx = {
  trace_id : int;   (** Collector-scoped, monotonically increasing. *)
  span_id : int;    (** Parent span id; [1] for a freshly minted root. *)
  sampled : bool;   (** Carried on the wire; {!mint} always sets it. *)
}

val pack : ctx -> root:bool -> int
(** Marker-event argument: [trace_id lsl 2 | root lsl 1 | sampled]. *)

val unpack : int -> ctx * bool
(** Inverse of {!pack}; the returned bool is the root bit. The span id does
    not travel in marker events and unpacks as 0. *)

type span = { phase : Trace.phase; t0 : int; t1 : int; children : span list }

type segment = {
  machine : string;
  root : bool;
  seg_t0 : int;
  seg_t1 : int;
  spans : span list;  (** Top-level spans observed inside the window. *)
}

type t

val create : ?collect_spans:bool -> unit -> t
(** [collect_spans] (default true) controls whether windows also record
    their full nested span tree; with it off the collector still tracks
    segments (window bounds, {!root_cycles}), but skips the per-span
    builders entirely — the right mode for high-volume measurement runs
    where only end-to-end windows are read back. *)

val mint : t -> ctx
(** Fresh trace context. *)

val attach : t -> machine:string -> Emitter.t -> unit
(** Start collecting request windows from [emitter], labelling segments
    with [machine]. One collector may watch several emitters. The
    collector subscribes to [Req_begin]/[Req_end], plus the span kinds only
    when [collect_spans] is set, so other events never reach it. *)

val completed : t -> int
(** Root windows closed. *)

val sampled_traces : t -> int list
(** Trace ids with at least one collected segment, ascending. *)

val tree : t -> trace_id:int -> segment list
(** The request's segments, root first; [] for an unknown id. *)

val root_cycles : t -> trace_id:int -> int option
(** End-to-end cycles of the root segment, when collected. *)

val latency_percentile : t -> p:float -> int
(** Nearest-rank percentile ({!Histogram.nearest_rank}) of the root-segment
    cycles over all completed requests; 0 before any. *)

val to_json : t -> string
(** All collected request trees plus the latency summary. *)

val to_chrome_json : t -> trace_id:int -> string
(** One request's causal tree as a Chrome trace: one tid per machine
    segment, spans as nested B/E pairs. *)

val pp_tree : Format.formatter -> t * int -> unit
(** Human-readable rendering of one request's tree. *)
