(** Local APIC timer: fires {!Idt.vec_timer} every [period] cycles of the
    virtual clock. The machine layer polls {!pending} at event boundaries
    (interrupts in this simulation are delivered between instructions, as on
    real hardware). *)

type t

val create : Cycles.clock -> period:int -> t
(** [period] in cycles; the paper's guest uses a 250 Hz-ish tick. *)

val set_period : t -> int -> unit

val pending : t -> bool
(** Whether a timer interrupt is due at the current clock value. *)

val deadline : t -> int
(** Absolute clock value of the next tick. *)

val acknowledge : t -> unit
(** Consume the pending interrupt and arm the next deadline. Skips ahead if
    multiple periods elapsed (ticks don't queue up). *)

val fired_count : t -> int
(** Total timer interrupts delivered (Table 6's #Timer). *)
