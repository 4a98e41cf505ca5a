(** Control registers CR0/CR3/CR4 with the protection bits Erebor manages
    (Table 2 of the paper: mov %r, %CR is a sensitive instruction). *)

type t
(** Register file. The representation is private to keep the hot-path bit
    twiddling free of Int64 boxing (the EMC gate toggles the WP grant on
    every round trip); the architectural bit constants below stay [int64]
    for x86 fidelity. *)

val create : unit -> t

val gen : t -> int
(** Mutation counter: any CR0/CR4 write bumps it. {!Cpu} compares it to
    decide whether its cached access-check context is still valid. A CR3
    load does not bump it: the context does not read CR3. *)

(** {2 CR0} *)

val cr0_wp : int64  (** Write-protect: supervisor writes honor R/W=0. *)
val wp : t -> bool

(** {2 CR3} *)

val set_root : t -> int -> unit
(** Point CR3 at the PML4 frame. *)

val root_pfn : t -> int

(** {2 CR4 feature bits} *)

val cr4_smep : int64
val cr4_smap : int64
val cr4_pks : int64
val cr4_cet : int64

val smep : t -> bool
val smap : t -> bool
val pks : t -> bool
val cet : t -> bool

val set_bit : t -> reg:[ `Cr0 | `Cr4 ] -> int64 -> bool -> unit
