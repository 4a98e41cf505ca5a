(** End-to-end secure data communication (§6.3).

    The remote client and EREBOR-MONITOR run an attestation-authenticated
    Diffie-Hellman handshake over an *untrusted* transport (the proxy
    program / DebugFS channel of the paper's artifact, modelled by {!Wire}).
    The monitor binds its DH share to a TDREPORT whose report_data is the
    transcript hash; the client checks the report's MAC, the expected MRTD,
    and the binding before deriving directional AEAD keys. Responses are
    padded to a fixed bucket size so output length leaks nothing (§6.3). *)

module Wire : sig
  (** The untrusted proxy: a message queue anyone (including the attacker)
      can read. *)

  type t

  val create : unit -> t
  val send : t -> bytes -> unit
  val recv : t -> bytes option
  val snoop : t -> bytes list
  (** Everything that ever crossed the wire, for leakage assertions. *)
end

val pad_to_bucket : bucket:int -> bytes -> bytes
(** Length-prefix and zero-pad to the next multiple of [bucket]. *)

val unpad : bytes -> (bytes, string) result
(** [Error] on a short buffer or a length word that does not fit it
    (including one with bit 63 set); never raises. *)

val encode_sealed : Crypto.Aead.sealed -> bytes
val decode_sealed : bytes -> (Crypto.Aead.sealed, string) result
(** [Ok] only when the length word is exactly the ciphertext's length, so
    [encode_sealed] of the result gives the input back; never raises. *)

(** {2 Trace-context header}

    A request-tracing context travels *inside* the seal — magic ["ERTC1"],
    le64 trace id, le64 parent span id, one flags byte (bit 0 = sampled) —
    so the untrusted proxy learns nothing from it. The server strips the
    header before handing the plaintext to the monitor, keeping
    length-proportional cycle charges identical with tracing on or off. *)

val ctx_header_len : int
val encode_ctx : Obs.Request.ctx -> bytes -> bytes
(** Ids must be non-negative, as {!Obs.Request.mint} makes them. *)

val decode_ctx : bytes -> (Obs.Request.ctx * bytes) option
(** [Some] only for a canonical header — non-negative ids, a flags byte
    of 0 or 1 — so [encode_ctx] of the result gives the input back. *)

module Client : sig
  type t

  val create :
    rng:Crypto.Drbg.t -> hw_key:bytes -> expected_mrtd:bytes -> t
  (** [hw_key] stands in for the quote-verification collateral a real
      verifier fetches from the attestation service (see DESIGN.md). *)

  val hello : t -> bytes
  (** First flight: the client's DH public value. *)

  val finish : t -> server_hello:bytes -> (unit, string) result
  (** Verify the monitor's report (MAC, MRTD, transcript binding) and derive
      the session keys. *)

  val seal_request : ?ctx:Obs.Request.ctx -> t -> bytes -> bytes
  (** Encrypt client data for the monitor (wire encoding included). With
      [?ctx], the trace-context header is prepended inside the seal. *)

  val open_response : t -> bytes -> (bytes, string) result
  (** Decrypt, authenticate and unpad a monitor response. *)
end

module Server : sig
  type t

  val accept :
    monitor:Monitor.t -> rng:Crypto.Drbg.t -> client_hello:bytes ->
    (t * bytes, string) result
  (** Monitor side: consume the client hello, mint the bound TDREPORT
      (monitor-exclusive tdcall) and produce the server hello. *)

  val open_request : t -> bytes -> (bytes, string) result
  (** Decrypt and authenticate one request. A trace-context header, when
      present, is stripped before the plaintext is returned; the server
      emits [Req_begin] and remembers the context until the response is
      sealed. Authentication failures are audited. *)

  val last_ctx : t -> Obs.Request.ctx option
  (** The trace context of the request currently being served, if any. *)

  val seal_response : t -> bucket:int -> bytes -> bytes
  (** Pad to [bucket] and encrypt — fixed-length output against size covert
      channels. Emits [Req_end] and clears the stored trace context. *)
end

val serialize_report : Tdx.Attest.report -> bytes
val deserialize_report : bytes -> (Tdx.Attest.report, string) result
