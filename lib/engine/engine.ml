open Sasos_addr
open Sasos_os
module Event = Sasos_trace.Event
module Player = Sasos_trace.Player

(* --- engine selection --------------------------------------------------- *)

type t = Scalar | Batch

let of_string s =
  match String.lowercase_ascii s with
  | "scalar" -> Some Scalar
  | "batch" -> Some Batch
  | _ -> None

let to_string = function Scalar -> "scalar" | Batch -> "batch"

(* Written once by the CLI before any machine (or worker domain) exists,
   read ever after; Atomic keeps the cross-domain read well-defined under
   the OCaml 5 memory model. *)
let global_engine : t Atomic.t = Atomic.make Scalar

let default_engine () = Atomic.get global_engine
let set_default_engine e = Atomic.set global_engine e

(* --- compiled trace programs -------------------------------------------

   One slot of [stride] ints per event. Word 0 carries the opcode tag in
   its low 4 bits and any small immediate field above them; words 1-3 are
   the operand lanes. The layout (mirrored in DESIGN.md):

     tag  event             extra (word0 >> 4)        lane1   lane2     lane3
      0   domain            -                         -       -         -
      1   destroy-domain    -                         pd      -         -
      2   segment           align?(bit0)+shift(6b)    pages   name idx  -
      3   destroy           -                         seg     -         -
      4   attach            rights (3b)               pd      seg       -
      5   detach            -                         pd      seg      -
      6   grant             rights (3b)               pd      seg       off
      7   protect-all       rights (3b)               seg     off       -
      8   protect-segment   rights (3b)               pd      seg       -
      9   switch            -                         pd      -         -
     10   access            kind (2b)                 seg     off       -
     11   unmap             -                         seg     page      -
     12   charge            -                         cycles  pg-ins    pg-outs

   Index lanes (pd / seg / pages / page / name index) are validated to 26
   bits and offsets to 31 bits at compile time: an operand outside its
   lane raises Invalid_argument naming the op, instead of silently
   truncating somewhere downstream. Segment names are interned in a side
   pool so the code array stays pure ints. *)

let stride = 4
let tag_bits = 4
let tag_mask = (1 lsl tag_bits) - 1
let id_bits = 26
let off_bits = 31

let tag_new_domain = 0
let tag_destroy_domain = 1
let tag_new_segment = 2
let tag_destroy_segment = 3
let tag_attach = 4
let tag_detach = 5
let tag_grant = 6
let tag_protect_all = 7
let tag_protect_segment = 8
let tag_switch = 9
let tag_access = 10
let tag_unmap = 11
let tag_charge = 12

type program = { code : int array; names : string array }

let length prog = Array.length prog.code / stride

let lane_check i what bits v =
  if v < 0 || v >= 1 lsl bits then
    invalid_arg
      (Printf.sprintf
         "Engine.compile: op %d: %s %d does not fit the %d-bit lane" i what v
         bits)

let compile events =
  let n = List.length events in
  let code = Array.make (n * stride) 0 in
  let interned = Hashtbl.create 8 in
  let pool = ref [] and npool = ref 0 in
  let intern s =
    match Hashtbl.find_opt interned s with
    | Some i -> i
    | None ->
        let i = !npool in
        Hashtbl.add interned s i;
        pool := s :: !pool;
        incr npool;
        i
  in
  List.iteri
    (fun i (e : Event.t) ->
      let base = i * stride in
      let emit ?(extra = 0) tag a b c =
        code.(base) <- tag lor (extra lsl tag_bits);
        code.(base + 1) <- a;
        code.(base + 2) <- b;
        code.(base + 3) <- c
      in
      match e with
      | Event.New_domain -> emit tag_new_domain 0 0 0
      | Event.Destroy_domain { pd } ->
          lane_check i "domain index" id_bits pd;
          emit tag_destroy_domain pd 0 0
      | Event.New_segment { pages; align_shift; name } ->
          lane_check i "pages" id_bits pages;
          let extra =
            match align_shift with
            | None -> 0
            | Some a ->
                lane_check i "align shift" 6 a;
                1 lor (a lsl 1)
          in
          let ni = intern name in
          lane_check i "name index" id_bits ni;
          emit ~extra tag_new_segment pages ni 0
      | Event.Destroy_segment { seg } ->
          lane_check i "segment index" id_bits seg;
          emit tag_destroy_segment seg 0 0
      | Event.Attach { pd; seg; rights } ->
          lane_check i "domain index" id_bits pd;
          lane_check i "segment index" id_bits seg;
          emit ~extra:(Rights.to_int rights) tag_attach pd seg 0
      | Event.Detach { pd; seg } ->
          lane_check i "domain index" id_bits pd;
          lane_check i "segment index" id_bits seg;
          emit tag_detach pd seg 0
      | Event.Grant { pd; seg; off; rights } ->
          lane_check i "domain index" id_bits pd;
          lane_check i "segment index" id_bits seg;
          lane_check i "offset" off_bits off;
          emit ~extra:(Rights.to_int rights) tag_grant pd seg off
      | Event.Protect_all { seg; off; rights } ->
          lane_check i "segment index" id_bits seg;
          lane_check i "offset" off_bits off;
          emit ~extra:(Rights.to_int rights) tag_protect_all seg off 0
      | Event.Protect_segment { pd; seg; rights } ->
          lane_check i "domain index" id_bits pd;
          lane_check i "segment index" id_bits seg;
          emit ~extra:(Rights.to_int rights) tag_protect_segment pd seg 0
      | Event.Switch { pd } ->
          lane_check i "domain index" id_bits pd;
          emit tag_switch pd 0 0
      | Event.Access { kind; seg; off } ->
          lane_check i "segment index" id_bits seg;
          lane_check i "offset" off_bits off;
          let kind_code =
            match kind with
            | Access.Read -> 0
            | Access.Write -> 1
            | Access.Execute -> 2
          in
          emit ~extra:kind_code tag_access seg off 0
      | Event.Unmap { seg; page } ->
          lane_check i "segment index" id_bits seg;
          lane_check i "page" id_bits page;
          emit tag_unmap seg page 0
      | Event.Charge { cycles; page_ins; page_outs } ->
          lane_check i "cycles" off_bits cycles;
          lane_check i "page-ins" off_bits page_ins;
          lane_check i "page-outs" off_bits page_outs;
          emit tag_charge cycles page_ins page_outs)
    events;
  { code; names = Array.of_list (List.rev !pool) }

let decode_one { code; names } i =
  let w = code.(i * stride) in
  let a = code.((i * stride) + 1)
  and b = code.((i * stride) + 2)
  and c = code.((i * stride) + 3) in
  let extra = w lsr tag_bits in
  match w land tag_mask with
  | 0 -> Event.New_domain
  | 1 -> Event.Destroy_domain { pd = a }
  | 2 ->
      let align_shift =
        if extra land 1 <> 0 then Some ((extra lsr 1) land 63) else None
      in
      Event.New_segment { pages = a; align_shift; name = names.(b) }
  | 3 -> Event.Destroy_segment { seg = a }
  | 4 -> Event.Attach { pd = a; seg = b; rights = Rights.of_int (extra land 7) }
  | 5 -> Event.Detach { pd = a; seg = b }
  | 6 ->
      Event.Grant
        { pd = a; seg = b; off = c; rights = Rights.of_int (extra land 7) }
  | 7 ->
      Event.Protect_all
        { seg = a; off = b; rights = Rights.of_int (extra land 7) }
  | 8 ->
      Event.Protect_segment
        { pd = a; seg = b; rights = Rights.of_int (extra land 7) }
  | 9 -> Event.Switch { pd = a }
  | 10 ->
      let kind =
        match extra land 3 with
        | 0 -> Access.Read
        | 1 -> Access.Write
        | _ -> Access.Execute
      in
      Event.Access { kind; seg = a; off = b }
  | 11 -> Event.Unmap { seg = a; page = b }
  | 12 -> Event.Charge { cycles = a; page_ins = b; page_outs = c }
  | t -> invalid_arg (Printf.sprintf "Engine.decode: bad opcode tag %d" t)

let to_events prog = List.init (length prog) (decode_one prog)

(* --- decode-execute loop ------------------------------------------------

   Replicates Player.replay: same handle tables by creation index, same
   bounds checks with the same reason strings, same per-event obs phases
   when a collector is ambient. Only the engine's own Bad errors are
   caught — machine exceptions propagate (the player alone reports a
   machine's refusal of a segment, charge or destroy-domain event as an
   error), so the differential harness's crash detection behaves
   identically on both engines. *)

type run = {
  outcomes : Access.outcome list;
  domains : Pd.t option array;
  segments : Segment.t option array;
}

exception Bad of string

(* "trace:" ^ Event.label, indexed by opcode tag *)
let phase_names =
  [|
    "trace:domain";
    "trace:destroy-domain";
    "trace:segment";
    "trace:destroy";
    "trace:attach";
    "trace:detach";
    "trace:grant";
    "trace:protect-all";
    "trace:protect-segment";
    "trace:switch";
    "trace:access";
    "trace:unmap";
    "trace:charge";
  |]

let exec prog sys =
  let code = prog.code and names = prog.names in
  let n = Array.length code / stride in
  (* handle tables pre-sized from a counting pass over the op stream *)
  let ndom_total = ref 0 and nseg_total = ref 0 in
  for i = 0 to n - 1 do
    match code.(i * stride) land tag_mask with
    | 0 -> incr ndom_total
    | 2 -> incr nseg_total
    | _ -> ()
  done;
  let domains : Pd.t option array = Array.make (max 1 !ndom_total) None in
  let segments : Segment.t option array = Array.make (max 1 !nseg_total) None in
  let npd = ref 0 and nseg = ref 0 in
  let outcomes = ref [] in
  let pd i =
    if i < 0 || i >= !npd then
      raise (Bad (Printf.sprintf "unknown domain %d" i));
    match domains.(i) with
    | Some d -> d
    | None -> raise (Bad (Printf.sprintf "domain %d was destroyed" i))
  in
  let seg i =
    if i < 0 || i >= !nseg then
      raise (Bad (Printf.sprintf "unknown segment %d" i));
    match segments.(i) with
    | Some s -> s
    | None -> raise (Bad (Printf.sprintf "segment %d was destroyed" i))
  in
  let va_of s off =
    let sg = seg s in
    if off < 0 || off >= Segment.size_bytes sg then
      raise (Bad (Printf.sprintf "offset %d outside segment %d" off s));
    sg.Segment.base + off
  in
  let step i =
    let base = i * stride in
    let w = Array.unsafe_get code base in
    let a = Array.unsafe_get code (base + 1)
    and b = Array.unsafe_get code (base + 2)
    and c = Array.unsafe_get code (base + 3) in
    let extra = w lsr tag_bits in
    match w land tag_mask with
    | 0 ->
        domains.(!npd) <- Some (System_ops.new_domain sys);
        incr npd
    | 1 ->
        System_ops.destroy_domain sys (pd a);
        domains.(a) <- None
    | 2 ->
        let align_shift =
          if extra land 1 <> 0 then Some ((extra lsr 1) land 63) else None
        in
        segments.(!nseg) <-
          Some
            (System_ops.new_segment sys ~name:names.(b) ?align_shift ~pages:a
               ());
        incr nseg
    | 3 ->
        System_ops.destroy_segment sys (seg a);
        segments.(a) <- None
    | 4 -> System_ops.attach sys (pd a) (seg b) (Rights.of_int (extra land 7))
    | 5 -> System_ops.detach sys (pd a) (seg b)
    | 6 ->
        System_ops.grant sys (pd a) (va_of b c) (Rights.of_int (extra land 7))
    | 7 -> System_ops.protect_all sys (va_of a b) (Rights.of_int (extra land 7))
    | 8 ->
        System_ops.protect_segment sys (pd a) (seg b)
          (Rights.of_int (extra land 7))
    | 9 -> System_ops.switch_domain sys (pd a)
    | 10 ->
        let kind =
          match extra land 3 with
          | 0 -> Access.Read
          | 1 -> Access.Write
          | _ -> Access.Execute
        in
        outcomes := System_ops.access sys kind (va_of a b) :: !outcomes
    | 11 ->
        let sg = seg a in
        if b < 0 || b >= sg.Segment.pages then
          raise (Bad (Printf.sprintf "page %d outside segment %d" b a));
        System_ops.unmap_page sys (Segment.first_vpn sg + b)
    | 12 -> System_ops.charge_external sys ~page_ins:b ~page_outs:c ~cycles:a ()
    | t -> invalid_arg (Printf.sprintf "Engine.exec: bad opcode tag %d" t)
  in
  let obs = Sasos_obs.Obs.ambient () in
  let enabled = Sasos_obs.Obs.enabled obs in
  let rec go i =
    if i >= n then
      Ok { outcomes = List.rev !outcomes; domains; segments }
    else
      match
        if enabled then
          Sasos_obs.Obs.with_phase obs
            phase_names.(code.(i * stride) land tag_mask)
            (fun () -> step i)
        else step i
      with
      | () -> go (i + 1)
      | exception Bad reason ->
          Error { Player.at = i; event = decode_one prog i; reason }
  in
  go 0

let replay events sys =
  match default_engine () with
  | Scalar -> Player.replay events sys
  | Batch -> begin
      match exec (compile events) sys with
      | Ok run -> Ok run.outcomes
      | Error e -> Error e
    end
