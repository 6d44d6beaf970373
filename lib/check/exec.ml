open Sasos_addr
open Sasos_os

type result = { outcomes : Access.outcome list; over_allow : bool }

let run_packed ?(keep = fun _ -> true) (geom : Op.geom) script sys =
  let domains =
    Array.init geom.Op.domains (fun _ -> System_ops.new_domain sys)
  in
  let segs =
    Array.init geom.Op.segments (fun _ ->
        System_ops.new_segment sys ~pages:geom.Op.pages_per_seg ())
  in
  System_ops.switch_domain sys domains.(0);
  let dom_alive = Array.make geom.Op.domains true in
  let seg_alive = Array.make geom.Op.segments true in
  let page_va p =
    Segment.page_va segs.(Op.seg_of_page geom p) (Op.page_in_seg geom p)
  in
  let outcomes = ref [] in
  List.iter
    (fun op ->
      if keep op then
        match (op : Op.t) with
        | Op.Attach { d; s; r } -> System_ops.attach sys domains.(d) segs.(s) r
        | Op.Detach { d; s } -> System_ops.detach sys domains.(d) segs.(s)
        | Op.Grant { d; p; r } ->
            System_ops.grant sys domains.(d) (page_va p) r
        | Op.Protect_all { p; r } -> System_ops.protect_all sys (page_va p) r
        | Op.Protect_segment { d; s; r } ->
            System_ops.protect_segment sys domains.(d) segs.(s) r
        | Op.Switch { d } -> System_ops.switch_domain sys domains.(d)
        | Op.Destroy_domain { d } ->
            dom_alive.(d) <- false;
            System_ops.destroy_domain sys domains.(d)
        | Op.Destroy_segment { s } ->
            seg_alive.(s) <- false;
            System_ops.destroy_segment sys segs.(s)
        | Op.Unmap { p } ->
            System_ops.unmap_page sys
              (Segment.first_vpn segs.(Op.seg_of_page geom p)
              + Op.page_in_seg geom p)
        | Op.Acc { kind; p } ->
            outcomes := System_ops.access sys kind (page_va p) :: !outcomes
      else
        (* dropped by a mutation: the machine never sees the op, but its
           liveness bookkeeping must still match the script so the probe
           set below stays meaningful *)
        match (op : Op.t) with
        | Op.Destroy_domain { d } -> dom_alive.(d) <- false
        | Op.Destroy_segment { s } -> seg_alive.(s) <- false
        | _ -> ())
    script;
  let probes =
    List.concat
      (List.init geom.Op.domains (fun d ->
           if not dom_alive.(d) then []
           else
             List.filter_map
               (fun p ->
                 if seg_alive.(Op.seg_of_page geom p) then
                   Some (domains.(d), page_va p)
                 else None)
               (List.init (Op.pages geom) Fun.id)))
  in
  { outcomes = List.rev !outcomes; over_allow = System_ops.hw_over_allows sys probes }

let run ?keep geom script variant =
  run_packed ?keep geom script
    (Sasos_machine.Sys_select.make variant Config.default)
