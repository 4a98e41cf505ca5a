(** Tamper-evident audit log of monitor security decisions.

    Every record is HMAC-SHA256 hash-chained to its predecessor: record
    [i]'s MAC covers the previous record's MAC and a canonical encoding of
    record [i]'s body. {!finalize} appends a close record carrying the
    record count. The offline {!verify_string} therefore detects record
    tampering (MAC mismatch), reordering and drops (sequence/MAC breaks)
    and tail truncation (missing or inconsistent close record).

    Appending is pure bookkeeping — it never advances the virtual clock, so
    calibrated results are unchanged with auditing enabled. *)

type verdict = Allow | Deny | Kill | Info

type record = {
  seq : int;
  ts : int;            (** Virtual cycles at the decision point. *)
  category : string;   (** "scan", "privop.cr", "mmu", "policy", ... *)
  verdict : verdict;
  detail : string;
  mac : string;        (** Chain MAC, lowercase hex. *)
}

type t

val create : key:bytes -> t
(** Fresh chain under [key]; the genesis MAC is
    [HMAC(key, "erebor-audit-v1")]. *)

val append : t -> ts:int -> category:string -> verdict:verdict ->
  detail:string -> unit
(** Append one decision record. Raises [Invalid_argument] after
    {!finalize}. *)

val finalize : t -> now:int -> unit
(** Append the close record (category ["audit.close"], detail ["count=N"]).
    Idempotent: later calls are no-ops. A chain that was never finalized
    does not verify — that is what makes truncation detectable. *)

val finalized : t -> bool

val length : t -> int
(** Number of decision records (the close record is not counted). *)

val records : t -> record list
(** All records in append order, including the close record once
    finalized. *)

val to_string : t -> string
(** JSONL rendering, one record per line. *)

val escape_json : string -> string
(** JSON string-body escaping (quote, backslash, control characters): the
    library's one escaper, used by every JSON exporter. *)

val verify_chain : key:bytes -> t -> (int, string) result
(** [verify_chain ~key t] re-walks a live chain's MACs under [key], as
    {!verify_string} does, but does not ask for the close record. [Ok n] is
    {!length}; [Error msg] names the first record whose MAC fails. *)

val verify_string : key:bytes -> string -> (int, string) result
(** [verify_string ~key s] re-walks the chain over a {!to_string} rendering.
    [Ok n] is the number of decision records in an intact, finalized chain;
    [Error msg] pinpoints the first failure (malformed line, sequence gap,
    MAC mismatch, missing/inconsistent close record). *)

