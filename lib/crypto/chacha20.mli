(** ChaCha20 stream cipher (RFC 8439), the confidentiality half of the
    client↔monitor secure channel. *)

val key_size : int
(** 32 bytes. *)

val nonce_size : int
(** 12 bytes. *)

val block : key:bytes -> nonce:bytes -> counter:int32 -> bytes
(** [block ~key ~nonce ~counter] is the raw 64-byte keystream block; exposed
    for test vectors. Raises [Invalid_argument] on wrong key/nonce sizes. *)

val block_into : key:bytes -> nonce:bytes -> counter:int32 -> bytes -> unit
(** [block_into ~key ~nonce ~counter dst] writes the 64-byte keystream block
    into the first 64 bytes of [dst], so a consumer can reuse one buffer.
    It rebuilds the input state per call; a consumer drawing many blocks
    under one key keeps an {!init_state} and calls {!block_of_state}.
    Raises [Invalid_argument] if [dst] is shorter than 64 bytes. *)

val init_state : key:bytes -> nonce:bytes -> counter:int32 -> int array
(** [init_state ~key ~nonce ~counter] is the 16-word block-function input
    (RFC 8439 §2.3): constants, key, counter (word 12), nonce (words
    13–15), each word in \[0, 2{^32}). A caller that keeps it may rewrite
    the counter and nonce words in place between blocks. Raises
    [Invalid_argument] on wrong key/nonce sizes. *)

val block_of_state : int array -> bytes -> unit
(** [block_of_state st dst] writes the 64-byte keystream block of input
    state [st] into the first 64 bytes of [dst], allocating nothing. It is
    the one block function behind {!block}, {!block_into} and {!xor}.
    Raises [Invalid_argument] unless [st] has 16 words and [dst] at least
    64 bytes. *)

val xor : key:bytes -> nonce:bytes -> ?counter:int32 -> bytes -> bytes
(** [xor ~key ~nonce data] encrypts (or, being an involution, decrypts) [data]
    with the keystream starting at block [counter] (default 1, reserving
    block 0 for a MAC key as AEAD constructions do). *)
