(** EREBOR-MONITOR: the intra-kernel privileged component (§4–§6).

    Installed into the CVM *before* the kernel (stage-one verified boot), it
    owns every sensitive interface: the MMU (through {!Mmu_guard}), CR/MSR/
    IDT state, and the GHCI. The deprivileged kernel reaches these only via
    the EMC privops table the kernel boots over at {!install}, each call
    passing through the CET-guarded {!Gate}. *)

exception Policy_violation of string
(** Raised when the kernel requests a sensitive operation the monitor's
    policy forbids (e.g. disabling SMAP, remapping monitor memory,
    requesting an attestation digest). *)

type t

val install :
  ?backend:Isolation.kind ->
  cpu:Hw.Cpu.t ->
  mem:Hw.Phys_mem.t ->
  td:Tdx.Td_module.t ->
  firmware:bytes ->
  monitor_frames:int ->
  device_shared_frames:int ->
  unit ->
  t
(** Stage-one boot: measure the firmware and the monitor binary into MRTD,
    claim the bottom [monitor_frames] frames as monitor memory, write the
    measured gate code into monitor frame 1 (physical 0x1000, behind
    {!Gate.entry_point}) and check it with {!gate_intact}, designate
    the next [device_shared_frames] as the only region convertible to CVM
    shared memory, and enable the protection hardware: CET (IBT) plus
    whatever the chosen {!Isolation} backend rests on — PKS with the
    normal-mode PKRS (the default, the paper's TDX prototype), the CR0.WP
    discipline (SEV-style platforms without PKS, §10), or the simulated
    TME-MK key engine. *)

val gate : t -> Gate.t
val guard : t -> Mmu_guard.t
val backend : t -> Isolation.t
(** The isolation backend instantiated at {!install}. *)

val kernel : t -> Kernel.t option

val boot_kernel :
  t -> kernel_image:Hw.Image.t -> reserved_frames:int -> cma_frames:int ->
  (Kernel.t, string) result
(** Stage-two boot: byte-scan the image's executable sections (§5.1); on
    success, load the image, boot the kernel over the EMC privops table,
    register its master root, classify kernel text, and write-protect the
    monitor's and PTPs' direct-map views. *)

(** {2 Monitor-internal privileged services} *)

val tdreport : t -> report_data:bytes -> Tdx.Attest.report
(** Only the monitor can mint attestation digests (C5). Raises
    [Policy_violation], minting nothing, if {!gate_intact} is false. *)

val gate_intact : t -> bool
(** Whether the gate code in monitor memory still equals the listing
    measured into MRTD at {!install}. Compares in place: no allocation and
    no virtual cycles. *)

val cpuid : t -> leaf:int -> int64
(** Sandbox cpuid emulation: first use per leaf queries the host via
    vmcall, later uses hit the monitor's cache (§6.2). *)

val set_usercopy_veto : t -> (unit -> string option) -> unit
(** Sandbox-manager hook: return [Some reason] to forbid kernel user copies
    in the current context (e.g. the current address space is a sealed
    sandbox). *)

val prepare_sandbox_entry : t -> unit
(** Clear IA32_UINTR_TT.valid before resuming a sandbox (§6.2 step 4). *)

val interpose_user_exit : t -> (unit -> 'a) -> 'a
(** Wrap a non-sandbox user exit (syscall/interrupt) with the monitor's
    interposition cost — the system-wide overhead measured in §9.3. *)

(** {2 Statistics and observability} *)

type emc_stats = {
  mmu : int;
  cr : int;
  msr : int;
  idt : int;
  smap : int;
  ghci : int;
}
(** Per-kind EMC service counts, derived on demand from the monitor's
    counter view of the event bus — there is no mutable statistics record. *)

val emc_stats : t -> emc_stats
val emc_total : t -> int
val cpuid_cache_hits : t -> int

val obs : t -> Obs.Emitter.t
(** The machine-wide event emitter (the one carried by the CPU). *)

val now : t -> int
(** Current virtual cycle count — timestamp source for trace events. *)
