(** The monitor's isolation invariants, stated once.

    §8's claims C1–C8 come down to state the monitor keeps against a hostile
    kernel and host, whatever either of them did. {!check} reads that state
    off a live monitor and names every place it no longer holds. Call it
    outside an EMC. It charges no virtual cycles and emits no event; with
    [?attrib] it closes that sink at the current clock.

    Nothing on a simulation path calls it: the security tests, the
    [selfcheck] battery and the guard fuzzer do, after the adversary's
    moves. *)

type violation =
  | Host_shared of int
      (** A monitor or confined frame is host-shared in the SEPT. *)
  | User_mapped of { pfn : int; root : int }
      (** A monitor frame, or a confined frame outside its owner's address
          space, is reachable from user mode through the tree under
          [root]. *)
  | Monitor_class of int
      (** A frame of monitor memory no longer has class [Monitor]. *)
  | Grant_open
      (** The isolation backend's grant is not the revoked value (under
          PKS: IA32_PKRS is not the normal-mode value). *)
  | Key_tag of int
      (** The frame's key tag is off policy: a mapping of a page-table or
          kernel-text frame is writable, user-reachable or carries another
          protection key, or (TME-MK) the frame's key id is not its
          owner's, or it is keyed while not confined. *)
  | Gate_modified
      (** The gate code differs from the measured listing. *)
  | Audit_broken of string
      (** The attached audit chain does not verify under the given key. *)
  | Unaudited of { category : string; expected : int; records : int }
      (** Decisions without their Deny record: ["mmu"] counts the guard's
          denials, ["policy"] the [Policy_violation]s the caller saw. *)
  | Attribution_leak of { attributed : int; elapsed : int }
      (** The attribution sink charged [attributed] cycles for [elapsed]
          cycles of virtual time: some context was charged a negative
          span. *)

val check :
  audit_key:bytes -> ?violations:int -> ?attrib:Obs.Attrib.t -> Monitor.t ->
  violation list
(** Every invariant, in the constructor order above; [[]] when all hold.
    The audit checks run when a chain is attached to the monitor's emitter:
    it must verify under [audit_key], and its counts run from its genesis,
    so attach it before the first denial. With [violations] (the
    number of [Policy_violation]s the caller caught from this monitor) the
    chain must hold exactly that many privop and attestation Deny records.
    [attrib] must have been attached to the monitor's emitter. *)

val pp_violation : violation Fmt.t
