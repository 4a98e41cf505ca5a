(** Round-robin scheduler driven by APIC timer ticks. Context switches load
    the next task's CR3 through the privileged-operation table, so under
    Erebor every switch pays an EMC — one of the mechanical sources of the
    system-wide overhead in §9.3. *)

type t

val create : ?on_switch:(Task.t -> unit) -> quantum_ticks:int -> unit -> t
(** A task is preempted after [quantum_ticks] timer interrupts. [on_switch]
    runs after every completed rotation with the incoming task — the
    kernel's hook for publishing [Context_switch] trace events. *)

val enqueue : t -> Task.t -> unit
val current : t -> Task.t option

val runnable_count : t -> int

val on_timer :
  t -> switch:('k -> prev:Task.t option -> next:Task.t -> unit) -> 'k -> bool
(** [on_timer t ~switch k] accounts one tick; when the quantum expires and
    another runnable task waits, it rotates and calls [switch k]. Returns
    whether a switch happened. [switch] takes its context [k] as an
    argument, so a caller passes a toplevel function and the tick builds
    no closure. *)

val yield :
  t -> switch:('k -> prev:Task.t option -> next:Task.t -> unit) -> 'k -> bool
(** Voluntary rotation (sched_yield, futex wait). *)

val block_current : t -> unit
val wake : t -> Task.t -> unit
val remove_dead : t -> unit
(** Drop dead tasks from the queue. *)

val switches : t -> int
