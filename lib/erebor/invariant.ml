type violation =
  | Host_shared of int
  | User_mapped of { pfn : int; root : int }
  | Monitor_class of int
  | Grant_open
  | Key_tag of int
  | Gate_modified
  | Audit_broken of string
  | Unaudited of { category : string; expected : int; records : int }
  | Attribution_leak of { attributed : int; elapsed : int }

let pp_violation ppf = function
  | Host_shared pfn -> Fmt.pf ppf "frame %d is host-shared" pfn
  | User_mapped { pfn; root } ->
      Fmt.pf ppf "frame %d is user-reachable under root %d" pfn root
  | Monitor_class pfn -> Fmt.pf ppf "monitor frame %d lost its class" pfn
  | Grant_open -> Fmt.string ppf "isolation grant open outside an EMC"
  | Key_tag pfn -> Fmt.pf ppf "frame %d carries an off-policy key tag" pfn
  | Gate_modified -> Fmt.string ppf "gate code differs from its measurement"
  | Audit_broken e -> Fmt.pf ppf "audit chain does not verify: %s" e
  | Unaudited { category; expected; records } ->
      Fmt.pf ppf "%d %s decision(s) but %d Deny record(s)" expected category
        records
  | Attribution_leak { attributed; elapsed } ->
      Fmt.pf ppf "%d cycles attributed for %d elapsed" attributed elapsed

(* Every present leaf under every root the guard registered, with whether
   each entry on the way down allows user access. A subtree's verdicts
   depend only on that and on the root's sandbox, so the kernel half that
   every root shares is walked once per sandbox, not once per root. *)
let mapping_violations mem guard =
  let frames = Hw.Phys_mem.frames mem in
  let found = ref [] in
  let seen = Hashtbl.create 64 in
  let leaf ~root ~sandbox ~user pfn pte =
    match Mmu_guard.class_of guard pfn with
    | Mmu_guard.Monitor when user -> found := User_mapped { pfn; root } :: !found
    | Mmu_guard.Confined { owner } when user && owner <> sandbox ->
        found := User_mapped { pfn; root } :: !found
    | Mmu_guard.Ptp _ | Mmu_guard.Kernel_text as c ->
        let key =
          match c with
          | Mmu_guard.Ptp _ -> Policy.key_ptp
          | _ -> Policy.key_kernel_text
        in
        if user || Hw.Pte.writable pte || Hw.Pte.pkey pte <> key then
          found := Key_tag pfn :: !found
    | Mmu_guard.Monitor | Mmu_guard.Confined _ | Mmu_guard.Free
    | Mmu_guard.Common _ ->
        ()
  in
  let rec table ~root ~sandbox ~level ~user pfn =
    let base = Hw.Phys_mem.addr_of_pfn pfn in
    for i = 0 to 511 do
      let pte = Hw.Phys_mem.read_u64 mem (base + (8 * i)) in
      let target = Hw.Pte.pfn pte in
      if Hw.Pte.present pte && target < frames then begin
        let user = user && Hw.Pte.user pte in
        if level = 3 then leaf ~root ~sandbox ~user target pte
        else if level = 2 && Hw.Pte.huge pte then
          for p = target to min (frames - 1) (target + 511) do
            leaf ~root ~sandbox ~user p pte
          done
        else if not (Hashtbl.mem seen (target, user, sandbox)) then begin
          Hashtbl.add seen (target, user, sandbox) ();
          table ~root ~sandbox ~level:(level + 1) ~user target
        end
      end
    done
  in
  for root = 0 to frames - 1 do
    match Mmu_guard.class_of guard root with
    | Mmu_guard.Ptp { level = 0; _ } ->
        let sandbox = Mmu_guard.sandbox_of_root guard ~root_pfn:root in
        table ~root ~sandbox ~level:0 ~user:true root
    | _ -> ()
  done;
  List.sort_uniq compare !found

(* Under TME-MK a confined frame carries its owner's key id and no other
   frame carries one. *)
let tme_violations cpu guard ~frames =
  match cpu.Hw.Cpu.tme with
  | None -> []
  | Some tme ->
      List.filter_map
        (fun pfn ->
          let want =
            match Mmu_guard.class_of guard pfn with
            | Mmu_guard.Confined { owner } -> Isolation.keyid_of_owner owner
            | _ -> 0
          in
          if Hw.Tme.tag_of tme ~pfn = want then None else Some (Key_tag pfn))
        (List.init frames Fun.id)

let deny_records audit pred =
  List.length
    (List.filter
       (fun r -> r.Obs.Audit.verdict = Obs.Audit.Deny && pred r.Obs.Audit.category)
       (Obs.Audit.records audit))

(* The categories [Monitor.fail] audits a [Policy_violation] under. *)
let policy_category c =
  c = "attest" || String.starts_with ~prefix:"privop." c

let audit_violations ~audit_key ?violations m =
  match Obs.Emitter.audit (Monitor.obs m) with
  | None -> []
  | Some audit ->
      let broken =
        match Obs.Audit.verify_chain ~key:audit_key audit with
        | Ok _ -> []
        | Error e -> [ Audit_broken e ]
      in
      let unaudited category ~expected pred =
        let records = deny_records audit pred in
        if records = expected then [] else [ Unaudited { category; expected; records } ]
      in
      let mmu =
        unaudited "mmu"
          ~expected:(Mmu_guard.denied_count (Monitor.guard m))
          (String.equal "mmu")
      in
      let policy =
        match violations with
        | None -> []
        | Some expected -> unaudited "policy" ~expected policy_category
      in
      broken @ mmu @ policy

let attribution_violations attrib m =
  match attrib with
  | None -> []
  | Some a ->
      let elapsed = Monitor.now m in
      Obs.Attrib.close a ~now:elapsed;
      let rec charged v =
        List.fold_left (fun acc k -> acc + charged k) (max 0 v.Obs.Attrib.vself)
          v.Obs.Attrib.vkids
      in
      let attributed = charged (Obs.Attrib.view a) in
      if attributed = elapsed then [] else [ Attribution_leak { attributed; elapsed } ]

let check ~audit_key ?violations ?attrib m =
  let mem = Monitor.mem m and guard = Monitor.guard m in
  let frames = Hw.Phys_mem.frames mem in
  let shared =
    List.filter_map
      (fun pfn ->
        match Mmu_guard.class_of guard pfn with
        | Mmu_guard.Monitor | Mmu_guard.Confined _ -> Some (Host_shared pfn)
        | _ -> None)
      (Tdx.Sept.shared_pfns (Tdx.Td_module.sept (Monitor.td m)))
  in
  let reclassified =
    List.filter_map
      (fun pfn ->
        match Mmu_guard.class_of guard pfn with
        | Mmu_guard.Monitor -> None
        | _ -> Some (Monitor_class pfn))
      (List.init (Monitor.monitor_frames m) Fun.id)
  in
  let backend = Monitor.backend m in
  let grant =
    if Isolation.read_grant backend = Isolation.revoked_value backend then []
    else [ Grant_open ]
  in
  let mappings = mapping_violations mem guard in
  let user_mapped, key_tags =
    List.partition (function User_mapped _ -> true | _ -> false) mappings
  in
  let key_tags =
    List.sort_uniq compare (key_tags @ tme_violations (Monitor.cpu m) guard ~frames)
  in
  let gate = if Monitor.gate_intact m then [] else [ Gate_modified ] in
  List.concat
    [
      shared;
      user_mapped;
      reclassified;
      grant;
      key_tags;
      gate;
      audit_violations ~audit_key ?violations m;
      attribution_violations attrib m;
    ]
