(** Interrupt descriptor table. Handlers are code addresses in the simulated
    address space; the machine layer maps them to OCaml closures. Installing
    a table (lidt) is a sensitive instruction (Table 2) — under Erebor only
    the monitor does it, which is how exits get interposed (§6.2). *)

(** Standard vectors used by the simulation (of 256). *)

val vec_pf : int      (** 14 *)
val vec_timer : int   (** 32 — APIC timer. *)

type entry = { present : bool; handler : int }

type t

val create : unit -> t
(** All vectors absent. *)

val set : t -> int -> handler:int -> unit
val clear : t -> int -> unit
val copy : t -> t

val deliver : t -> int -> int
(** [deliver t vector] is the handler address; raises
    [Fault.Fault (General_protection _)] when the vector is absent. *)
