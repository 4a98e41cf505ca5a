(** The evaluation machine: assembles hardware + TDX + VMM + kernel (+
    monitor, sandbox manager, LibOS) for one {!Config.setting}, then runs
    workload bodies written against the {!ops} interface. Every operation is
    routed the way that setting routes it — e.g. a heap service is a syscall
    natively but an in-process LibOS call elsewhere; a page fault installs a
    PTE directly natively but through an EMC under Erebor — so the
    performance numbers *emerge* from mechanism, not from per-setting
    constants. *)

type t

val create :
  ?obs:Obs.Emitter.t ->
  ?journal:Obs.Journal.Writer.t ->
  ?window:Obs.Window.t ->
  ?sketches:Obs.Sketch.Family.t ->
  ?backend:Erebor.Isolation.kind ->
  ?frames:int -> ?cma_frames:int -> ?reserved_frames:int ->
  setting:Config.setting -> unit -> t
(** [?obs] supplies the machine's event emitter — attach sinks (recorders,
    histograms) to it before [create] to observe boot as well. A fresh
    emitter is made otherwise. [?journal] attaches a flight-recorder writer
    (stream name ["sim"]) before any other sink, so the journal holds the
    complete event stream from machine assembly onward; the emitter's
    finalizer seals and closes it. [?window] attaches a sliding-window sink
    before boot, so its buckets cover the full event stream. [?sketches]
    attaches a per-kind relative-error quantile-sketch family before boot.
    [?backend] picks the monitor's isolation backend (default [Pks], the
    calibrated configuration); it only matters for settings with a monitor. *)

val kern : t -> Kernel.t
val manager : t -> Erebor.Sandbox.manager option
val clock : t -> Hw.Cycles.clock

val obs : t -> Obs.Emitter.t
(** The machine's event emitter (the one carried by its CPU). *)

val counters : t -> Obs.Counter.t
(** The machine-wide counter view {!snapshot} is derived from. *)

val snapshot : t -> Stats.snapshot

(** {2 Workload interface} *)

type ops = {
  compute : int -> unit;
      (** Pure user compute; timer interrupts are delivered on schedule. *)
  parallel : total:int -> sync_ops:int -> unit;
      (** Multi-threaded region: wall-clock = total / threads, plus
          synchronization (futex natively, spinlock in the LibOS). *)
  sync_op : contended:bool -> unit;
  touch_confined : page:int -> unit;
      (** Access a confined-heap page (faults on first touch). *)
  touch_common : page:int -> unit;
      (** Access a common-region page. *)
  cold_fault : unit -> unit;
      (** Evict-and-retouch one data page: one reclaim PTE clear plus one
          demand fault — the sustained runtime #PF source of Table 6. *)
  pte_churn : n:int -> unit;
      (** [n] kernel housekeeping PTE stores (page cache, slab, reclaim) —
          the background MMU activity behind Table 6's EMC rates. *)
  service : unit -> unit;
      (** One runtime service (heap/fs/misc): syscall vs LibOS call. *)
  signal : unit -> unit;
      (** kill + handler delivery + sigreturn (LMBench lat_sig). *)
  mmap_cycle : pages:int -> unit;
      (** mmap, fault in every page, munmap (LMBench lat_mmap). *)
  fork_exit : unit -> unit;
      (** fork a child (eager page copies), exit and reap it. *)
  fs_io : write:bool -> len:int -> unit;
      (** Kernel file I/O in chunks, with real user copies — used by native
          programs and by background (non-sandboxed) servers. *)
  host_io : bytes:int -> unit;
      (** The proxy moves packets for this service: context switch to the
          proxy, syscalls, user copies, packet-buffer PTE churn, and a
          synchronous VM exit. *)
  cpuid : unit -> unit;
  recv_input : unit -> bytes;
  send_output : bytes -> unit;
  rng : Crypto.Drbg.t;
}

type spec = {
  name : string;
  sandboxed : bool;
      (** Service workloads run in EREBOR-SANDBOX; background programs
          (LMBench, OpenSSH/Nginx) stay normal tasks even under Erebor. *)
  timer_hz : int;              (** APIC tick rate for this run (0 = keep). *)
  init_compute : int;
      (** Setting-independent initialization work (model/database load). *)
  confined_bytes : int;        (** Simulated (scaled) confined size. *)
  nominal_confined_mb : int;   (** Reported, as in Table 5/6. *)
  common : (string * int * int) option;
      (** (instance, simulated bytes, nominal MB). *)
  threads : int;
  contention : float;          (** Probability a sync op contends. *)
  input : bytes;
  output_bucket : int;
  body : ops -> unit;
}

type run_result = {
  setting : Config.setting;
  init_cycles : int;           (** Memory setup + data installation. *)
  run_cycles : int;            (** Body execution. *)
  stats : Stats.snapshot;      (** Over the body only. *)
  output : bytes;              (** Unpadded result payload. *)
  wire_output_len : int;       (** Padded/encrypted size (full Erebor). *)
  killed : string option;
  common_frames : int;         (** Frames backing the common instance. *)
}

val run : t -> spec -> run_result
(** Execute one client session of [spec] under this machine's setting.
    Under [Erebor_full] the session is bracketed by [Req_begin]/[Req_end]
    on the machine's emitter, from the client's handshake to its sealed
    response; both carry the sandbox id. *)

val run_fresh :
  ?backend:Erebor.Isolation.kind ->
  ?frames:int -> ?cma_frames:int -> setting:Config.setting -> spec -> run_result
(** Convenience: fresh machine, one run. *)
