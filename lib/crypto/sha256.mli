(** SHA-256 (FIPS 180-4), implemented from scratch for the attestation
    measurement chain and the HMAC construction.

    The incremental interface follows the usual init/feed/digest pattern; a
    context may keep absorbing input until [digest] is called, after which it
    must not be reused. *)

type ctx
(** Mutable hashing context. *)

val init : unit -> ctx
(** Fresh context with the FIPS initial state. *)

val feed : ctx -> bytes -> unit
(** [feed ctx b] absorbs all of [b]. *)

val feed_string : ctx -> string -> unit
(** [feed_string ctx s] absorbs all of [s]. *)

val digest : ctx -> bytes
(** Finalize and return the 32-byte digest. The context must not be fed
    afterwards. *)

val digest_bytes : bytes -> bytes
(** One-shot hash of a byte buffer. *)

val digest_string : string -> bytes
(** One-shot hash of a string. *)

val hex : bytes -> string
(** Lowercase hex rendering of a digest (or any byte buffer). *)

val digest_size : int
(** 32. *)

val block_size : int
(** 64 — the compression-function block size, needed by HMAC. *)
