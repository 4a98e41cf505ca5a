type t = {
  cpuid_table : (int, Tdx.Td_module.tdcall_result) Hashtbl.t;
      (* Each leaf's answer, built once (default leaves on first use). *)
  interrupts : int Queue.t;
  mutable observed : bytes list;
  mutable vmcalls : int;
}

let create () =
  {
    cpuid_table = Hashtbl.create 8;
    interrupts = Queue.create ();
    observed = [];
    vmcalls = 0;
  }

let default_cpuid leaf = Int64.of_int (0x47656e75 lxor leaf) (* "Genu"-flavoured *)

let set_cpuid t ~leaf v = Hashtbl.replace t.cpuid_table leaf (Tdx.Td_module.Ok_int v)

(* Counted, not logged: a #VE exit (every host I/O kick) must not leave a
   cell behind for the machine's lifetime. *)
let handler t vmcall =
  t.vmcalls <- t.vmcalls + 1;
  match vmcall with
  | Tdx.Ghci.Cpuid leaf -> (
      match Hashtbl.find t.cpuid_table leaf with
      | answer -> answer
      | exception Not_found ->
          let answer = Tdx.Td_module.Ok_int (default_cpuid leaf) in
          Hashtbl.replace t.cpuid_table leaf answer;
          answer)
  | Tdx.Ghci.Hlt -> Tdx.Td_module.Ok_unit
  | Tdx.Ghci.Io_read { port; len } ->
      Tdx.Td_module.Ok_bytes (Bytes.make len (Char.chr (port land 0xff)))
  | Tdx.Ghci.Io_write { data; _ } ->
      t.observed <- Bytes.copy data :: t.observed;
      Tdx.Td_module.Ok_unit
  | Tdx.Ghci.Mmio_read { len; _ } -> Tdx.Td_module.Ok_bytes (Bytes.make len '\000')
  | Tdx.Ghci.Mmio_write { data; _ } ->
      t.observed <- Bytes.copy data :: t.observed;
      Tdx.Td_module.Ok_unit

let inject_external_interrupt t ~vector = Queue.add vector t.interrupts

let pending_interrupt t = Queue.peek_opt t.interrupts
let take_interrupt t = Queue.take_opt t.interrupts

let observed_contains t needle =
  let contains hay =
    let h = Bytes.to_string hay in
    let n = String.length needle and hl = String.length h in
    let rec go i = i + n <= hl && (String.sub h i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  List.exists contains t.observed

let vmcall_count t = t.vmcalls
