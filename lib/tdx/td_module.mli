(** The simulated TDX module: owner of the sEPT and the measurement state,
    gatekeeper for every tdcall, and the component that saves/scrubs guest
    context at exits so the host never sees guest registers (§2.1). *)

type tdcall_result =
  | Ok_int of int64
  | Ok_bytes of bytes
  | Ok_report of Attest.report
  | Ok_unit
  | Error_leaf of string

type vmm_handler = Ghci.vmcall -> tdcall_result
(** Installed by the host VMM. Its answer to a vmcall is the tdcall's
    result as it stands, so a host that keeps its answers (cpuid) serves a
    warm exit without allocating. *)

type t

val create :
  mem:Hw.Phys_mem.t -> clock:Hw.Cycles.clock -> hw_key:bytes -> t
(** A fresh TD covering all of [mem]; every frame starts private. *)

val sept : t -> Sept.t
val set_vmm : t -> vmm_handler -> unit

val measure_initial : t -> bytes -> unit
(** Extend MRTD with a boot component (firmware, monitor binary). Only legal
    before the first tdcall; raises [Invalid_argument] afterwards, modelling
    TD build finalization. *)

val tdcall : t -> Hw.Cpu.t -> Ghci.leaf -> tdcall_result
(** Execute a tdcall from the guest. Raises [Fault.Fault (#GP)] when the CPU
    is in user mode (tdcall is privileged). Advances the clock by the
    calibrated leaf cost and updates counters. *)

val with_async_exit : t -> Hw.Cpu.t -> (unit -> 'a) -> 'a
(** Model an asynchronous exit: save the guest's registers, scrub them so
    the host-side action [f] cannot observe guest state, run [f], then
    restore (on an exception too). The scrub is observable by [f] through
    the CPU. The registers wait in the module's own save area, so the
    masking allocates nothing; asynchronous exits do not nest (asserted). *)

(** {2 Counters} *)

val tdreport_count : t -> int
