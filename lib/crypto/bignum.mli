(** Arbitrary-precision natural numbers, just large enough to support
    finite-field Diffie-Hellman for the attested channel. Little-endian
    26-bit limbs; all values are non-negative. *)

type t
(** Immutable natural number. *)

val zero : t
val one : t

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val of_hex : string -> t
(** Parse a big-endian hex string (whitespace tolerated). *)

val of_bytes : bytes -> t
(** Parse big-endian bytes. *)

val to_bytes : ?len:int -> t -> bytes
(** Big-endian bytes, left-padded with zeros to [len] when given. Raises
    [Invalid_argument] if the value does not fit in [len] bytes. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)

val mul : t -> t -> t

val bit_length : t -> int
(** Position of the highest set bit; 0 for zero. *)

val mod_ : t -> t -> t
(** [mod_ a m] is [a mod m], computed by shift-and-subtract; adequate for the
    occasional reduction outside the Montgomery fast path. *)

val divmod : t -> t -> t * t
(** [divmod a b] is (quotient, remainder); binary long division. Raises
    [Invalid_argument] on a zero divisor. *)

val invmod : t -> t -> t option
(** [invmod a m] is the inverse of [a] modulo [m], when gcd(a, m) = 1. *)

val is_even : t -> bool

val shift_right_one : t -> t

module Mont : sig
  type ctx
  (** Precomputed Montgomery context for a fixed odd modulus. *)

  val create : t -> ctx
  (** Raises [Invalid_argument] if the modulus is even or < 3. *)

  val modpow : ctx -> t -> t -> t
  (** [modpow ctx base exp] is [base ^ exp mod modulus], by left-to-right
      square-and-multiply over Montgomery products. [base] must be
      < modulus. *)
end
