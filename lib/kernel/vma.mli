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

val empty : t
val add : t -> region -> (t, string) result
(** Fails on overlap, non-page-aligned bounds, or empty length. *)

val remove : t -> start:int -> t
(** Drop the region starting exactly at [start]; no-op when absent. *)

val find : t -> int -> region option
(** Region containing an address. *)

val find_exn : t -> int -> region
(** {!find} without the option: raises [Not_found] when no region holds the
    address. The fault path's form, which allocates nothing. *)

val iter : (region -> unit) -> t -> unit
val count : t -> int

val total_bytes : t -> kind -> int
(** Sum of region sizes of one kind (confined/common accounting). *)

val find_gap : t -> hint:int -> len:int -> limit:int -> int option
(** Lowest page-aligned start >= [hint] where [len] bytes fit wholly below
    [limit] without overlapping an existing region. *)
