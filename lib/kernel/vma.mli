(** Virtual memory areas of one address space: a sorted, non-overlapping set
    of regions with protections and a kind that the fault handler and
    Erebor's memory-declaration checks dispatch on. *)

type prot = { read : bool; write : bool; exec : bool }

val prot_rw : prot
val prot_r : prot

type kind =
  | Anon                  (** Demand-zero heap / mmap memory. *)
  | Stack
  | File of string        (** Backed by an in-memory file. *)
  | Confined              (** Erebor sandbox confined memory (pinned). *)
  | Common                (** Erebor read-only shared region. *)

type region = { start : int; len : int; prot : prot; kind : kind }

val region_end : region -> int

type t
(** Mutable: a sorted, growable array searched by bisection. [add],
    [remove], [find_exn] and [find_gap] build nothing once the array has
    grown to the set's peak size. *)

val create : unit -> t
(** A fresh, empty set. *)

val add : t -> region -> (unit, string) result
(** Insert [region]; fails, leaving the set unchanged, on overlap,
    non-page-aligned bounds, or empty length. *)

val remove : t -> start:int -> unit
(** Drop the region starting exactly at [start]; no-op when absent. *)

val find : t -> int -> region option
(** Region containing an address. *)

val find_exn : t -> int -> region
(** {!find} without the option: raises [Not_found] when no region holds the
    address. The fault path's form, which allocates nothing. *)

val iter : (region -> unit) -> t -> unit
(** In ascending start order. [f] may remove regions from the set it is
    walking, the one it was handed included: the walk resumes after the
    last region visited and never visits a region twice. *)

val count : t -> int

val total_bytes : t -> kind -> int
(** Sum of region sizes of one kind (confined/common accounting). *)

val find_gap : t -> hint:int -> len:int -> limit:int -> int
(** Lowest page-aligned start >= [hint] where [len] bytes fit wholly below
    [limit] without overlapping an existing region, or [-1] when none
    does. *)
