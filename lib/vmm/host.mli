(** The untrusted host hypervisor (KVM-like). It emulates vmcalls (cpuid,
    port I/O, MMIO), queues interrupt injections, and — because it is a
    potential attacker in the threat model — records everything the guest
    ever discloses to it, so tests can assert that client plaintext never
    crosses this boundary. *)

type t

val create : unit -> t

val handler : t -> Tdx.Td_module.vmm_handler
(** To be installed via {!Tdx.Td_module.set_vmm}. *)

val set_cpuid : t -> leaf:int -> int64 -> unit
(** Configure the value returned for a cpuid leaf (default: a fixed
    vendor-style constant). *)

val inject_external_interrupt : t -> vector:int -> unit
(** Queue a device/IPI interrupt for the guest. *)

val pending_interrupt : t -> int option
(** Peek at the next queued vector. *)

val take_interrupt : t -> int option
(** Dequeue it. *)

(** {2 Attacker's notebook} *)

val observed_contains : t -> string -> bool
(** Substring search over every byte string the guest handed to the host
    (I/O writes, MMIO writes) — used by leakage tests. *)

val vmcall_log : t -> Tdx.Ghci.vmcall list
(** All vmcalls handled, newest last. *)
