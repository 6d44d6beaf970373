open Sasos
module System_intf = Os.System_intf

type counters = { ns : int array; calls : int array }

let op_names =
  [|
    "access"; "switch"; "attach"; "detach"; "grant"; "protect"; "unmap";
    "destroy"; "new"; "over_allow"; "charge";
  |]

let op_access = 0
and op_switch = 1
and op_attach = 2
and op_detach = 3
and op_grant = 4
and op_protect = 5
and op_unmap = 6
and op_destroy = 7
and op_new = 8
and op_over_allow = 9
and op_charge = 10

let counters () =
  let n = Array.length op_names in
  { ns = Array.make n 0; calls = Array.make n 0 }

let total_ns c = Array.fold_left ( + ) 0 c.ns

module M = struct
  type t = { inner : System_intf.packed; c : counters }

  let name = "timed"

  (* no caller dispatches on a machine's model; the inner one is what
     runs *)
  let model = System_intf.Domain_page
  let wrap c inner = { inner; c }
  let create config = wrap (counters ()) (Machines.make Machines.Plb config)
  let os t = System_ops.os t.inner
  let metrics t = System_ops.metrics t.inner

  let stop t op t0 =
    let c = t.c in
    c.ns.(op) <- c.ns.(op) + (Pb.now_ns () - t0);
    c.calls.(op) <- c.calls.(op) + 1

  let new_domain t =
    let t0 = Pb.now_ns () in
    let pd = System_ops.new_domain t.inner in
    stop t op_new t0;
    pd

  let current_domain t = System_ops.current_domain t.inner

  let switch_domain t pd =
    let t0 = Pb.now_ns () in
    System_ops.switch_domain t.inner pd;
    stop t op_switch t0

  let destroy_domain t pd =
    let t0 = Pb.now_ns () in
    System_ops.destroy_domain t.inner pd;
    stop t op_destroy t0

  let new_segment t ?name ?align_shift ~pages () =
    let t0 = Pb.now_ns () in
    let seg = System_ops.new_segment t.inner ?name ?align_shift ~pages () in
    stop t op_new t0;
    seg

  let destroy_segment t seg =
    let t0 = Pb.now_ns () in
    System_ops.destroy_segment t.inner seg;
    stop t op_destroy t0

  let attach t pd seg rights =
    let t0 = Pb.now_ns () in
    System_ops.attach t.inner pd seg rights;
    stop t op_attach t0

  let detach t pd seg =
    let t0 = Pb.now_ns () in
    System_ops.detach t.inner pd seg;
    stop t op_detach t0

  let grant t pd va rights =
    let t0 = Pb.now_ns () in
    System_ops.grant t.inner pd va rights;
    stop t op_grant t0

  let protect_all t va rights =
    let t0 = Pb.now_ns () in
    System_ops.protect_all t.inner va rights;
    stop t op_protect t0

  let protect_segment t pd seg rights =
    let t0 = Pb.now_ns () in
    System_ops.protect_segment t.inner pd seg rights;
    stop t op_protect t0

  let unmap_page t vpn =
    let t0 = Pb.now_ns () in
    System_ops.unmap_page t.inner vpn;
    stop t op_unmap t0

  let access t kind va =
    let t0 = Pb.now_ns () in
    let outcome = System_ops.access t.inner kind va in
    stop t op_access t0;
    outcome

  let charge_external t ~cycles ~page_ins ~page_outs =
    let t0 = Pb.now_ns () in
    System_ops.charge_external t.inner ~page_ins ~page_outs ~cycles ();
    stop t op_charge t0

  let resident_prot_entries_for t va =
    System_ops.resident_prot_entries_for t.inner va

  let hw_over_allows t probes =
    let t0 = Pb.now_ns () in
    let over = System_ops.hw_over_allows t.inner probes in
    stop t op_over_allow t0;
    over
end

include M

let pack t = System_intf.Packed ((module M), t)
