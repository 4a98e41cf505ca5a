(** HKDF (RFC 5869) over HMAC-SHA256, used to derive the channel's encryption
    and MAC keys from the Diffie-Hellman shared secret. *)

val extract : salt:bytes -> ikm:bytes -> bytes
(** [extract ~salt ~ikm] is the 32-byte pseudorandom key. An empty salt is
    treated as 32 zero bytes, per the RFC. *)

val expand : prk:bytes -> info:string -> len:int -> bytes
(** [expand ~prk ~info ~len] derives [len] bytes of output keying material.
    Raises [Invalid_argument] if [len] exceeds [255 * 32]. *)
