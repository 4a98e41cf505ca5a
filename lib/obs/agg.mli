(** Fleet aggregator: harvests per-machine {!Counter} / {!Sketch} /
    {!Topk} / {!Exemplar} state and merges it into one fleet snapshot.

    Determinism contract (the one the eval tables carry): every
    component of a snapshot is a pure function of what was recorded, so
    merging snapshots in any order or grouping — including across
    [Sim.Runner ~jobs] schedules, where each parallel task seals one
    part — produces structurally equal ([=]) snapshots and identical
    {!render} text. *)

(** {2 Per-machine collection} *)

type part
(** Live per-machine state: a counter sink, a fleet latency sketch,
    per-tenant latency sketches, a (tenant x kind) heavy-hitter table,
    and a tail-exemplar reservoir. *)

type tenant
(** Interned tenant handle holding preallocated (tenant x kind) key
    strings, so the per-request {!record} path never allocates. *)

val part : machine:string -> unit -> part
(** [machine] names this part in exemplars and the snapshot machine
    list. The heavy-hitter table holds 64 keys. *)

val attach : Emitter.t -> part -> part
(** Attach the part's counter view to a machine's emitter, so the
    snapshot carries per-kind event counts/arg-sums. *)

val machine : part -> string
val counters : part -> Counter.t

val tenant : part -> string -> tenant
(** The handle for [name], interning it on first use. *)

val record :
  part -> tenant -> Trace.kind -> latency:int -> trace_id:int ->
  offset:int -> ts:int -> unit
(** Record one completed request: [latency] goes to the fleet and
    tenant sketches, one occurrence of (tenant x [kind]) to the
    heavy-hitter table, and the request becomes an exemplar candidate
    carrying [trace_id], the part's machine name, the {!Journal} frame
    [offset] (-1 when not recording) and [ts]. Allocation-free in
    steady state. *)

(** {2 Snapshots} *)

type t

val seal : part -> t
(** Freeze a part into a mergeable snapshot (the part is untouched and
    may keep recording). *)

val merge : t -> t -> t
(** Functional merge; exactly associative and commutative. *)

val merge_all : t list -> t
(** Left fold of {!merge}; raises [Invalid_argument] on []. By the
    determinism contract the result is independent of list order. *)

val machines : t -> string list
(** Sorted, deduped. *)

val requests : t -> int
(** Total requests recorded via {!record}. *)

val quantile : t -> p:float -> int
(** Fleet-wide latency quantile ({!Sketch.quantile} semantics). *)

val count : t -> Trace.kind -> int
val arg_sum : t -> Trace.kind -> int

val tenants : t -> string list
val tenant_sketch : t -> string -> Sketch.t option

val top : ?n:int -> t -> Topk.ranked list
val topk_summary : t -> Topk.summary

val exemplar_for : t -> p:float -> Exemplar.item option
(** The exemplar witnessing the fleet's [p] quantile: the reservoir
    entry for the band containing {!quantile}[ t ~p] (nearest occupied
    band if that one is empty). *)

val render : ?topn:int -> t -> string
(** ASCII fleet panel: fleet percentiles, per-tenant quantile table,
    heavy hitters with their guaranteed [lower, upper] true-count
    bounds, and the p99 exemplar line. Deterministic. *)
