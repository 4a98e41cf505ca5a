(** A small fixed-width synthetic ISA standing in for x86-64 in the parts of
    the system that reason about *instruction bytes*: the kernel image that
    Erebor's verified boot scans for sensitive instructions (§5.1), and the
    monitor's gate code whose single endbr64 anchors IBT (§5.3).

    Encoding: 4 bytes per instruction, [opcode; b0; b1; b2]. Benign opcodes
    and well-formed operand bytes stay below 0x80; sensitive opcodes occupy
    0xC0–0xC7. The verifier therefore scans *every byte offset* — exactly the
    conservative byte-level scan the paper describes — and a sensitive byte
    anywhere (even inside an operand) is a violation. Assemblers that want to
    pass verification must encode immediates in base-128, which [assemble]
    does. *)

type reg = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7

type instr =
  | Nop
  | Endbr                              (** Valid indirect-branch target. *)
  | Mov_imm of reg * int               (** 14-bit immediate. *)
  | Load of reg * reg                  (** rd <- [rs] *)
  | Store of reg * reg                 (** [rd] <- rs *)
  | Add of reg * reg
  | Jmp of int                         (** 14-bit signed instruction offset. *)
  | Call of int
  | Ret
  | Syscall
  | Iret
  | Cpuid
  | Clac                               (** Benign: *revokes* user access. *)
  | Senduipi of reg
  (* Sensitive instructions (Table 2): *)
  | Mov_cr of int * reg                (** CR index 0/3/4. *)
  | Wrmsr
  | Stac
  | Lidt
  | Tdcall

val instr_size : int  (** 4. *)

val imm_range : int
(** Immediates and branch offsets are 14-bit signed:
    [-imm_range, imm_range). *)

val reg_code : reg -> int
val reg_of_code : int -> reg option

(** Raw opcode bytes, exposed so the decoded-instruction cache ({!Icode})
    can re-encode and report without a constructor round trip. *)

val op_mov_cr : int
val op_wrmsr : int
val op_stac : int
val op_lidt : int
val op_tdcall : int

val encode : instr -> bytes
val assemble : instr list -> bytes
val decode : bytes -> int -> instr option
(** [decode b off] decodes the 4-byte instruction at [off]; [None] on an
    unknown opcode, a bad register or CR operand, an immediate byte
    >= 0x80 (not base-128), or a truncated tail. *)

val disassemble : bytes -> instr list option
(** [None] if any aligned slot fails to decode. *)

type violation = { offset : int; byte : int }

val scan : bytes -> violation list
(** Byte-level scan for sensitive opcode bytes at *any* offset, aligned or
    not. Empty means the code is verified free of sensitive instructions. *)

val pp_instr : Format.formatter -> instr -> unit
