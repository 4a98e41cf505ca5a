(** TDX attestation: the MRTD build-time measurement, runtime measurement
    registers, and TDREPORT generation/verification.

    Substitution note (DESIGN.md): real TDX reports are MACed with a
    CPU-fused key and converted to ECDSA quotes by the quoting enclave. Here
    the "hardware key" is a per-machine secret shared with the verifier
    library, and the report MAC is HMAC-SHA256 over the serialized report
    body. The trust structure is identical: only the TDX module can produce
    a valid MAC, and the report binds measurements to caller data. *)

type report = {
  mrtd : bytes;                (** 32-byte build measurement. *)
  rtmrs : bytes array;         (** 4 × 32-byte runtime registers. *)
  report_data : bytes;         (** 64-byte caller binding. *)
  mac : bytes;                 (** HMAC over the serialized body. *)
}

type measurements
(** Mutable measurement state owned by the TDX module. *)

val create_measurements : unit -> measurements

val extend_mrtd : measurements -> bytes -> unit
(** MRTD <- SHA256(MRTD || SHA256(data)) — boot-time only in spirit; callers
    enforce the phase. *)

val mrtd : measurements -> bytes

val extend_rtmr : measurements -> index:int -> bytes -> unit
(** Same chaining for a runtime register; raises on a bad index. *)

val rtmr : measurements -> index:int -> bytes

val generate : measurements -> hw_key:bytes -> report_data:bytes -> report
(** Build a MACed report. [report_data] shorter than 64 bytes is zero-padded;
    longer raises [Invalid_argument]. *)

val verify : hw_key:bytes -> report -> bool
(** Check the MAC (the verifier side of quote verification). *)

val serialize_body : report -> bytes
(** The MACed byte string, exposed for tests. *)

val fingerprint : report -> string
(** Short log-friendly identity (["mrtd=<8 hex> mac=<8 hex>"]) for audit
    records and debug output. *)
