(** The Guest-Host Communication Interface: the tdcall leaves a guest may
    invoke (Fig. 1 / Table 2 of the paper). Controlling *who* may execute
    tdcall is the heart of Erebor's GHCI interposition. *)

type vmcall =
  | Cpuid of int                 (** Leaf number; host returns the value. *)
  | Hlt
  | Io_read of { port : int; len : int }
  | Io_write of { port : int; data : bytes }
  | Mmio_read of { gpa : int; len : int }
  | Mmio_write of { gpa : int; data : bytes }

type leaf =
  | Vmcall of vmcall
      (** TDG.VP.VMCALL — synchronous exit to the host VMM. *)
  | Tdreport of { report_data : bytes }
      (** TDG.MR.REPORT — CPU-signed attestation digest; [report_data] is the
          64-byte caller-chosen binding (§2.1). *)
  | Map_gpa of { pfn : int; shared : bool }
      (** TDG.VP.MAP_GPA wrapper — convert a frame private<->shared. *)
  | Rtmr_extend of { index : int; data : bytes }
      (** TDG.MR.RTMR.EXTEND — extend a runtime measurement register. *)
