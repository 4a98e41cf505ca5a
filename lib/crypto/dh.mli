(** Finite-field Diffie-Hellman over the RFC 3526 1536-bit MODP group, the
    key-exchange half of the attested secure channel (§6.3 of the paper). *)

type keypair = {
  secret : Bignum.t;  (** Random exponent; never leaves this process. *)
  public : Bignum.t;  (** g^secret mod p. *)
}

val group_prime : Bignum.t
(** The 1536-bit safe prime from RFC 3526 group 5; the generator is 2. *)

val generate : Drbg.t -> keypair
(** Fresh keypair from 256 bits of DRBG output. *)

val public_bytes : keypair -> bytes
(** Fixed-width (192-byte) encoding of the public value for the wire. *)

val shared_secret : keypair -> peer_public:bytes -> bytes option
(** [shared_secret kp ~peer_public] is the 32-byte HKDF-extracted shared
    secret, or [None] when the peer value is out of range (0, 1, or >= p),
    which rejects small-subgroup confinement games. *)
