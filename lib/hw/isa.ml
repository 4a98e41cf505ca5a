type reg = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7

type instr =
  | Nop
  | Endbr
  | Mov_imm of reg * int
  | Load of reg * reg
  | Store of reg * reg
  | Add of reg * reg
  | Jmp of int
  | Call of int
  | Ret
  | Syscall
  | Iret
  | Cpuid
  | Clac
  | Senduipi of reg
  | Mov_cr of int * reg
  | Wrmsr
  | Stac
  | Lidt
  | Tdcall

let instr_size = 4

let op_nop = 0x00
let op_endbr = 0x01
let op_mov_imm = 0x02
let op_load = 0x03
let op_store = 0x04
let op_add = 0x05
let op_jmp = 0x06
let op_call = 0x07
let op_ret = 0x08
let op_syscall = 0x09
let op_iret = 0x0a
let op_cpuid = 0x0b
let op_clac = 0x0c
let op_senduipi = 0x0d
let op_mov_cr = 0xc0
let op_wrmsr = 0xc1
let op_stac = 0xc2
let op_lidt = 0xc4
let op_tdcall = 0xc5

let sensitive_opcode b = b >= 0xc0 && b <= 0xc7

let reg_code = function
  | R0 -> 0 | R1 -> 1 | R2 -> 2 | R3 -> 3 | R4 -> 4 | R5 -> 5 | R6 -> 6 | R7 -> 7

let reg_of_code = function
  | 0 -> Some R0 | 1 -> Some R1 | 2 -> Some R2 | 3 -> Some R3
  | 4 -> Some R4 | 5 -> Some R5 | 6 -> Some R6 | 7 -> Some R7
  | _ -> None

(* Immediates are 14-bit signed, base-128 encoded across two operand bytes so
   that well-formed code never contains a byte >= 0x80. *)
let imm_range = 1 lsl 13

let encode_imm v =
  if v < -imm_range || v >= imm_range then invalid_arg "Isa: immediate out of 14-bit range";
  let u = v land 0x3fff in
  (u land 0x7f, (u lsr 7) land 0x7f)

(* [None] unless both bytes are base-128 digits: [encode_imm] never writes
   a byte >= 0x80, and reading one would give an immediate outside the
   14-bit range that {!Icode} packs. *)
let decode_imm lo hi =
  if lo >= 0x80 || hi >= 0x80 then None
  else
    let u = lo lor (hi lsl 7) in
    Some (if u >= imm_range then u - (2 * imm_range) else u)

let encode instr =
  let b = Bytes.make instr_size '\000' in
  let set i v = Bytes.set b i (Char.chr (v land 0xff)) in
  (match instr with
  | Nop -> set 0 op_nop
  | Endbr -> set 0 op_endbr
  | Mov_imm (r, v) ->
      let lo, hi = encode_imm v in
      set 0 op_mov_imm;
      set 1 (reg_code r);
      set 2 lo;
      set 3 hi
  | Load (rd, rs) ->
      set 0 op_load;
      set 1 (reg_code rd);
      set 2 (reg_code rs)
  | Store (rd, rs) ->
      set 0 op_store;
      set 1 (reg_code rd);
      set 2 (reg_code rs)
  | Add (rd, rs) ->
      set 0 op_add;
      set 1 (reg_code rd);
      set 2 (reg_code rs)
  | Jmp off ->
      let lo, hi = encode_imm off in
      set 0 op_jmp;
      set 1 lo;
      set 2 hi
  | Call off ->
      let lo, hi = encode_imm off in
      set 0 op_call;
      set 1 lo;
      set 2 hi
  | Ret -> set 0 op_ret
  | Syscall -> set 0 op_syscall
  | Iret -> set 0 op_iret
  | Cpuid -> set 0 op_cpuid
  | Clac -> set 0 op_clac
  | Senduipi r ->
      set 0 op_senduipi;
      set 1 (reg_code r)
  | Mov_cr (cr, r) ->
      if cr <> 0 && cr <> 3 && cr <> 4 then invalid_arg "Isa: bad CR index";
      set 0 op_mov_cr;
      set 1 cr;
      set 2 (reg_code r)
  | Wrmsr -> set 0 op_wrmsr
  | Stac -> set 0 op_stac
  | Lidt -> set 0 op_lidt
  | Tdcall -> set 0 op_tdcall);
  b

let assemble instrs = Bytes.concat Bytes.empty (List.map encode instrs)

let decode b off =
  if off < 0 || off + instr_size > Bytes.length b then None
  else begin
    let byte i = Char.code (Bytes.get b (off + i)) in
    let reg i = reg_of_code (byte i) in
    let op = byte 0 in
    if op = op_nop then Some Nop
    else if op = op_endbr then Some Endbr
    else if op = op_mov_imm then
      match (reg 1, decode_imm (byte 2) (byte 3)) with
      | Some r, Some v -> Some (Mov_imm (r, v))
      | _ -> None
    else if op = op_load then
      match (reg 1, reg 2) with Some a, Some b -> Some (Load (a, b)) | _ -> None
    else if op = op_store then
      match (reg 1, reg 2) with Some a, Some b -> Some (Store (a, b)) | _ -> None
    else if op = op_add then
      match (reg 1, reg 2) with Some a, Some b -> Some (Add (a, b)) | _ -> None
    else if op = op_jmp then Option.map (fun v -> Jmp v) (decode_imm (byte 1) (byte 2))
    else if op = op_call then Option.map (fun v -> Call v) (decode_imm (byte 1) (byte 2))
    else if op = op_ret then Some Ret
    else if op = op_syscall then Some Syscall
    else if op = op_iret then Some Iret
    else if op = op_cpuid then Some Cpuid
    else if op = op_clac then Some Clac
    else if op = op_senduipi then Option.map (fun r -> Senduipi r) (reg 1)
    else if op = op_mov_cr then
      let cr = byte 1 in
      if cr = 0 || cr = 3 || cr = 4 then Option.map (fun r -> Mov_cr (cr, r)) (reg 2)
      else None
    else if op = op_wrmsr then Some Wrmsr
    else if op = op_stac then Some Stac
    else if op = op_lidt then Some Lidt
    else if op = op_tdcall then Some Tdcall
    else None
  end

let disassemble b =
  if Bytes.length b mod instr_size <> 0 then None
  else begin
    let n = Bytes.length b / instr_size in
    let rec go i acc =
      if i = n then Some (List.rev acc)
      else
        match decode b (i * instr_size) with
        | None -> None
        | Some instr -> go (i + 1) (instr :: acc)
    in
    go 0 []
  end

type violation = { offset : int; byte : int }

let scan b =
  let out = ref [] in
  for i = Bytes.length b - 1 downto 0 do
    let v = Char.code (Bytes.get b i) in
    if sensitive_opcode v then out := { offset = i; byte = v } :: !out
  done;
  !out

let pp_reg fmt r = Fmt.pf fmt "r%d" (reg_code r)

let pp_instr fmt = function
  | Nop -> Fmt.string fmt "nop"
  | Endbr -> Fmt.string fmt "endbr64"
  | Mov_imm (r, v) -> Fmt.pf fmt "mov %a, %d" pp_reg r v
  | Load (rd, rs) -> Fmt.pf fmt "load %a, [%a]" pp_reg rd pp_reg rs
  | Store (rd, rs) -> Fmt.pf fmt "store [%a], %a" pp_reg rd pp_reg rs
  | Add (rd, rs) -> Fmt.pf fmt "add %a, %a" pp_reg rd pp_reg rs
  | Jmp off -> Fmt.pf fmt "jmp %+d" off
  | Call off -> Fmt.pf fmt "call %+d" off
  | Ret -> Fmt.string fmt "ret"
  | Syscall -> Fmt.string fmt "syscall"
  | Iret -> Fmt.string fmt "iret"
  | Cpuid -> Fmt.string fmt "cpuid"
  | Clac -> Fmt.string fmt "clac"
  | Senduipi r -> Fmt.pf fmt "senduipi %a" pp_reg r
  | Mov_cr (cr, r) -> Fmt.pf fmt "mov %%cr%d, %a" cr pp_reg r
  | Wrmsr -> Fmt.string fmt "wrmsr"
  | Stac -> Fmt.string fmt "stac"
  | Lidt -> Fmt.string fmt "lidt"
  | Tdcall -> Fmt.string fmt "tdcall"
