(* One record per common-memory instance name. A frame's class points at
   it, so a leaf store reaches the seal state and the mapping list without
   hashing the name. *)
type common = {
  instance : string;
  mutable sealed : bool;
  mutable mappings : int list; (* leaf PTE addresses that mapped the instance *)
}

type frame_class =
  | Free
  | Ptp of { level : int; root : int; sandbox : int }
  | Monitor
  | Kernel_text
  | Confined of { owner : int }
  | Common of common

(* The empty leaves every directory slot starts on (Hw.Frame_table). *)
let empty_classes = Hw.Frame_table.empty_leaf Free
let empty_mapped = Hw.Frame_table.empty_leaf false

type t = {
  mem : Hw.Phys_mem.t;
  cpu : Hw.Cpu.t;
  backend : Isolation.t;
  (* Per-frame state as two-level frame tables indexed by pfn, with leaves
     allocated on the first non-default store: [class_of] sits on the
     write_pte hot path (several probes per EMC), so it is one directory
     load and one leaf load, with no hashing and a monomorphic element
     type. Out-of-range pfns (a hostile PTE pointing past RAM) read as
     [Free], exactly like a never-classified frame. *)
  frames : int;
  mutable classes : frame_class array array;
  mutable confined_mapped : bool array array; (* confined pfns with a live mapping *)
  commons : (string, common) Hashtbl.t;
  mutable kernel_root : int; (* -1 until the kernel boots *)
  mutable denied : int;
  mutable last_ptp : frame_class; (* see [ptp_class] *)
  mutable kernel_ptps : frame_class array; (* by level, see [ptp_class] *)
}

let create ~mem ~cpu ~backend =
  let frames = Hw.Phys_mem.frames mem in
  {
    mem;
    cpu;
    backend;
    frames;
    classes = Hw.Frame_table.empty_dir;
    confined_mapped = Hw.Frame_table.empty_dir;
    commons = Hashtbl.create 8;
    kernel_root = -1;
    denied = 0;
    last_ptp = Free;
    kernel_ptps = [||];
  }

let in_range t pfn = Hw.Frame_table.in_range ~frames:t.frames pfn

let[@inline] class_of t pfn =
  Array.unsafe_get
    (Hw.Frame_table.leaf t.classes ~empty:empty_classes pfn)
    (Hw.Frame_table.leaf_index pfn)

(* A class is a pointer, so its store pays the write barrier either way:
   the generic store costs no more. The bit below stores straight into an
   existing leaf. *)
let set_class t pfn cls =
  if in_range t pfn then begin
    let dir = Hw.Frame_table.set t.classes ~frames:t.frames ~empty:empty_classes pfn cls in
    if dir != t.classes then t.classes <- dir
  end

let clear_class t pfn = set_class t pfn Free

let mark_confined_mapped t pfn v =
  if in_range t pfn then begin
    let leaf = Hw.Frame_table.leaf t.confined_mapped ~empty:empty_mapped pfn in
    if leaf != empty_mapped then Array.unsafe_set leaf (Hw.Frame_table.leaf_index pfn) v
    else begin
      let dir =
        Hw.Frame_table.set t.confined_mapped ~frames:t.frames ~empty:empty_mapped pfn v
      in
      if dir != t.confined_mapped then t.confined_mapped <- dir
    end
  end

let set_kernel_root t pfn =
  t.kernel_root <- pfn;
  t.kernel_ptps <- Array.init 4 (fun level -> Ptp { level; root = pfn; sandbox = -1 })

let common t ~instance =
  match Hashtbl.find_opt t.commons instance with
  | Some c -> c
  | None ->
      let c = { instance; sealed = false; mappings = [] } in
      Hashtbl.replace t.commons instance c;
      c

let common_name c = c.instance

(* Instances compare by identity: there is one record per name, and
   structural equality would walk its mapping list. *)
let same_class a b =
  match (a, b) with Common x, Common y -> x == y | _ -> a = b

(* The class of a new interior table. Class values are immutable, so the
   tables one root grows at one level share one: the last one built is
   kept, and demand paging, which adds leaf tables under one root at a
   time, builds no class per table. The kernel's tree grows its direct map
   between the stores of user address spaces (a fork copies into fresh
   frames), so its classes are built once, when its root is set. *)
let ptp_class t ~level ~root =
  if root = t.kernel_root then t.kernel_ptps.(level)
  else
    match t.last_ptp with
    | Ptp { level = l; root = r; sandbox = -1 } when l = level && r = root -> t.last_ptp
    | _ ->
        let c = Ptp { level; root; sandbox = -1 } in
        t.last_ptp <- c;
        c

let register_root t ~root_pfn =
  match class_of t root_pfn with
  | Free ->
      set_class t root_pfn (Ptp { level = 0; root = root_pfn; sandbox = -1 });
      Ok ()
  | Ptp { level = 0; _ } -> Ok () (* re-loading an existing root (context switch) *)
  | Ptp _ -> Error "CR3 target is an interior page-table page"
  | Monitor -> Error "CR3 target is monitor memory"
  | Kernel_text -> Error "CR3 target is kernel text"
  | Confined _ | Common _ -> Error "CR3 target is sandbox memory"

(* The owning sandbox lives in the root frame's own class entry. A frame
   the guard never registered as a root (the kernel's page-table stores do
   not pass through the monitor) has no leaves for it to check, so there is
   nothing to record. *)
let register_sandbox_root t ~root_pfn ~sandbox =
  match class_of t root_pfn with
  | Ptp { level = 0; root; _ } -> set_class t root_pfn (Ptp { level = 0; root; sandbox })
  | Free | Ptp _ | Monitor | Kernel_text | Confined _ | Common _ -> ()

(* Sandbox owning [root_pfn], or -1 (sandbox ids start at 1): the leaf check
   asks this on every store, so it answers with one array probe and
   without an option. *)
let sandbox_of_root t ~root_pfn =
  match class_of t root_pfn with
  | Ptp { level = 0; sandbox; _ } -> sandbox
  | Free | Ptp _ | Monitor | Kernel_text | Confined _ | Common _ -> -1

let classify t ~pfn cls =
  match class_of t pfn with
  | Free ->
      set_class t pfn cls;
      (* Backend frame tagging rides classification: TME-MK keys the frame
         to its owner here; PKS/WP tag nothing. *)
      (match cls with
      | Confined { owner } -> Isolation.tag_confined t.backend ~pfn ~owner
      | Free | Ptp _ | Monitor | Kernel_text | Common _ -> ());
      Ok ()
  | Ptp _ -> Error "cannot reclassify a page-table page"
  | Monitor -> Error "cannot reclassify monitor memory"
  | Kernel_text | Confined _ | Common _ -> (
      (* Idempotent re-classification to the same class is fine. *)
      if same_class (class_of t pfn) cls then Ok () else Error "frame already classified")

let is_confined_mapped t ~pfn =
  Array.unsafe_get
    (Hw.Frame_table.leaf t.confined_mapped ~empty:empty_mapped pfn)
    (Hw.Frame_table.leaf_index pfn)

let declassify t ~pfn =
  (match class_of t pfn with
  | Confined _ -> Isolation.untag_confined t.backend ~pfn
  | Free | Ptp _ | Monitor | Kernel_text | Common _ -> ());
  clear_class t pfn;
  mark_confined_mapped t pfn false

let denied_count t = t.denied

let ptp_count t =
  Hw.Frame_table.fold
    (fun acc c -> match c with Ptp _ -> acc + 1 | _ -> acc)
    0 t.classes ~empty:empty_classes

(* Every policy denial, whatever the path, funnels through here: one stat
   bump and one [Mmu_deny] event, so security tests can assert exact denial
   counts from the run result. *)
let deny_incr t msg =
  t.denied <- t.denied + 1;
  Hw.Cpu.emit t.cpu Obs.Trace.Mmu_deny ~arg:t.denied;
  Obs.Emitter.audit_event t.cpu.Hw.Cpu.obs
    ~ts:(Hw.Cycles.now t.cpu.Hw.Cpu.clock) ~category:"mmu"
    ~verdict:Obs.Audit.Deny (fun () -> msg);
  Error msg

let record_common_mapping c pte_addr = c.mappings <- pte_addr :: c.mappings

(* Forget bookkeeping tied to the entry currently stored at [pte_addr]. *)
let release_old_leaf t pte_addr =
  let old = Hw.Phys_mem.read_u64 t.mem pte_addr in
  if Hw.Pte.present old then
    match class_of t (Hw.Pte.pfn old) with
    | Confined _ -> mark_confined_mapped t (Hw.Pte.pfn old) false
    | Free | Ptp _ | Monitor | Kernel_text | Common _ -> ()

let do_store t pte_addr pte =
  Hw.Phys_mem.write_u64 t.mem pte_addr pte;
  Hw.Cpu.flush_tlb t.cpu

(* An accepted store: the entry lands, and the answer is the constant
   [Ok ()], so accepting allocates nothing. *)
let accept t pte_addr pte =
  do_store t pte_addr pte;
  Ok ()

(* Leaf policy (§6.1): decide/transform a level-3 entry and, when it is
   accepted, store the transformed entry. The untrusted PTE is screened by
   the isolation backend first (TME-MK rejects forged key ids — only the
   monitor stamps them), then dispatched on the target frame's class. *)
let check_leaf t ~root ~pte_addr pte =
  match Isolation.validate_untrusted t.backend pte with
  | Error _ as e -> e
  | Ok () -> (
      let target = Hw.Pte.pfn pte in
      let sandbox = sandbox_of_root t ~root_pfn:root in
      match class_of t target with
      | Monitor -> Error "mapping monitor memory is forbidden"
      | Ptp _ ->
          (* PTPs are only visible read-only, supervisor, PTP-keyed (the kernel
             may read page tables but never write them). *)
          accept t pte_addr
            (Hw.Pte.set_pkey
               (Hw.Pte.set_user (Hw.Pte.set_writable pte false) false)
               Policy.key_ptp)
      | Kernel_text ->
          accept t pte_addr
            (Hw.Pte.set_pkey
               (Hw.Pte.set_user (Hw.Pte.set_writable pte false) false)
               Policy.key_kernel_text)
      | Confined { owner } -> (
          if sandbox = owner then
            if is_confined_mapped t ~pfn:target then
              Error "confined frame already mapped (single-mapping rule)"
            else begin
              mark_confined_mapped t target true;
              accept t pte_addr (Isolation.seal_confined_leaf t.backend ~owner pte)
            end
          else if sandbox >= 0 then Error "confined frame belongs to another sandbox"
          else Error "confined frame cannot map outside its sandbox")
      | Common c ->
          if c.sealed && sandbox < 0 && Hw.Pte.writable pte then
            (* A writable mapping of a sealed instance requested from
               outside any sandbox is an attack. *)
            Error "sealed common frame cannot be mapped writable outside a sandbox"
          else begin
            (* Sandbox mappings of a sealed instance silently downgrade to
               read-only (demand paging continues after seal). *)
            let pte = if c.sealed then Hw.Pte.set_writable pte false else pte in
            (* Only a writable entry can need revoking at seal time, so a
               read-only refault (every one after the seal) adds nothing
               to the list. *)
            if Hw.Pte.writable pte then record_common_mapping c pte_addr;
            accept t pte_addr pte
          end
      | Free ->
          if sandbox >= 0 && Hw.Pte.user pte then
            Error "sandbox user mappings must target declared confined/common frames"
          else accept t pte_addr pte)

(* A PTE slot is 8-byte aligned. Any other address would read and write
   across two neighbouring entries (or, at page offset 4092, across two
   pages), so it is denied before anything is read or stored. *)
let misaligned pte_addr = pte_addr land 7 <> 0

let write_pte t ~trusted ~pte_addr pte =
  if misaligned pte_addr then deny_incr t "misaligned PTE store"
  else
    match class_of t (Hw.Phys_mem.pfn_of_addr pte_addr) with
    | Ptp { level; root; _ } ->
        if level = 2 && Hw.Pte.present pte && Hw.Pte.huge pte then begin
          (* A 2 MiB leaf install. Sandboxes must declare memory at 4 KiB
             granularity, and classified frames never hide inside a huge
             mapping. *)
          if sandbox_of_root t ~root_pfn:root >= 0 then
            deny_incr t "huge mappings are not allowed in sandbox address spaces"
          else begin
            let base = Hw.Pte.pfn pte in
            let rec all_free i =
              i = 512
              || (class_of t (base + i) = Free && all_free (i + 1))
            in
            if base land 0x1ff <> 0 then deny_incr t "huge leaf frame not 2MiB-aligned"
            else if not (all_free 0) then
              deny_incr t "huge leaf covers classified frames"
            else accept t pte_addr pte
          end
        end
        else if level < 3 then begin
          (* Intermediate entry: the child becomes (or stops being) a PTP. *)
          let old = Hw.Phys_mem.read_u64 t.mem pte_addr in
          if Hw.Pte.present old && Hw.Pte.present pte && Hw.Pte.pfn old <> Hw.Pte.pfn pte
          then deny_incr t "re-pointing a live interior entry is forbidden"
          else if Hw.Pte.present pte then begin
            let child = Hw.Pte.pfn pte in
            match class_of t child with
            | Free ->
                set_class t child (ptp_class t ~level:(level + 1) ~root);
                accept t pte_addr pte
            | Ptp { level = l; _ } when l = level + 1 ->
                (* Sharing an existing subtree (kernel half of a new task). *)
                accept t pte_addr pte
            | Ptp _ -> deny_incr t "child frame already a PTP at another level"
            | Monitor -> deny_incr t "monitor frame cannot become a page-table page"
            | Kernel_text | Confined _ | Common _ ->
                deny_incr t "classified frame cannot become a page-table page"
          end
          else begin
            (* Clearing an interior slot: deregister the child (shallow). *)
            (if Hw.Pte.present old then
               match class_of t (Hw.Pte.pfn old) with
               | Ptp { level = l; _ } when l = level + 1 ->
                   clear_class t (Hw.Pte.pfn old)
               | _ -> ());
            accept t pte_addr pte
          end
        end
        else begin
          (* Leaf entry. *)
          release_old_leaf t pte_addr;
          if not (Hw.Pte.present pte) then accept t pte_addr pte
          else if trusted then begin
            (match class_of t (Hw.Pte.pfn pte) with
            | Common c -> record_common_mapping c pte_addr
            | _ -> ());
            accept t pte_addr pte
          end
          else
            match check_leaf t ~root ~pte_addr pte with
            | Ok () as ok -> ok
            | Error e -> deny_incr t e
        end
    | Free | Monitor | Kernel_text | Confined _ | Common _ ->
        deny_incr t "PTE store outside a registered page-table page"

let seal_common t ~instance =
  let c = common t ~instance in
  c.sealed <- true;
  let rewritten = ref 0 in
  List.iter
    (fun pte_addr ->
      let pte = Hw.Phys_mem.read_u64 t.mem pte_addr in
      (* Tolerate stale records: only rewrite entries still pointing at
         this instance's frames. *)
      if Hw.Pte.present pte then
        match class_of t (Hw.Pte.pfn pte) with
        | Common c' when c' == c && Hw.Pte.writable pte ->
            do_store t pte_addr (Hw.Pte.set_writable pte false);
            incr rewritten
        | _ -> ())
    c.mappings;
  !rewritten


(* ------------------------------------------------------------------ *)
(* Huge pages: forced splitting (§7)                                   *)
(* ------------------------------------------------------------------ *)

let split_huge_leaf t ~pte_addr ~alloc_ptp =
  if misaligned pte_addr then deny_incr t "split: misaligned PTE address"
  else
    match class_of t (Hw.Phys_mem.pfn_of_addr pte_addr) with
    | Ptp { level = 2; root; _ } ->
        let old = Hw.Phys_mem.read_u64 t.mem pte_addr in
        if not (Hw.Pte.present old && Hw.Pte.huge old) then
          Error "split: entry is not a huge leaf"
        else begin
          let base = Hw.Pte.pfn old in
          let pt = alloc_ptp () in
          (match class_of t pt with
          | Free -> set_class t pt (Ptp { level = 3; root; sandbox = -1 })
          | Ptp _ | Monitor | Kernel_text | Confined _ | Common _ ->
              failwith "split: allocator returned a classified frame");
          (* Fill the new table with 512 equivalent 4 KiB entries. *)
          let small = Hw.Pte.set_huge old false in
          for i = 0 to 511 do
            Hw.Phys_mem.write_u64 t.mem
              (Hw.Phys_mem.addr_of_pfn pt + (8 * i))
              (Hw.Pte.with_pfn small (base + i))
          done;
          (* Swing the directory entry from the huge leaf to the new table. *)
          let interior =
            Hw.Pte.make ~pfn:pt
              { Hw.Pte.default_flags with user = Hw.Pte.user old }
          in
          accept t pte_addr interior
        end
    | Ptp _ -> Error "split: entry is not at the page-directory level"
    | Free | Monitor | Kernel_text | Confined _ | Common _ ->
        Error "split: address is not inside a registered page-table page"

let protect_page_splitting t ~root_pfn ~vaddr ~key ~writable ~alloc_ptp =
  match Hw.Page_table.walk t.mem ~root_pfn vaddr with
  | None -> Error "protect: page not mapped"
  | Some w ->
      let retag () =
        match Hw.Page_table.walk t.mem ~root_pfn vaddr with
        | Some w' when not w'.Hw.Page_table.huge ->
            accept t w'.Hw.Page_table.pte_addr
              (Hw.Pte.set_writable
                 (Hw.Pte.set_pkey w'.Hw.Page_table.pte key)
                 writable)
        | Some _ -> Error "protect: still huge after split"
        | None -> Error "protect: mapping vanished"
      in
      if w.Hw.Page_table.huge then
        match split_huge_leaf t ~pte_addr:w.Hw.Page_table.pte_addr ~alloc_ptp with
        | Ok () -> retag ()
        | Error e -> Error e
      else retag ()
