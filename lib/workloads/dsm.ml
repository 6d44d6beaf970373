open Sasos_addr
open Sasos_os
open Sasos_util

type protocol = Invalidate | Update

type params = {
  protocol : protocol;
  nodes : int;
  pages : int;
  refs : int;
  theta : float;
  write_frac : float;
  switch_period : int;
  remote_fetch_cycles : int;
  seed : int;
}

let default =
  {
    protocol = Invalidate;
    nodes = 4;
    pages = 128;
    refs = 40_000;
    theta = 0.8;
    write_frac = 0.2;
    switch_period = 50;
    remote_fetch_cycles = 5_000;
    seed = 17;
  }

type result = {
  read_faults : int;
  write_faults : int;
  invalidations : int;
  updates : int;
}

type page_state = { mutable readers : int list; mutable writer : int option }

let run ?(params = default) sys =
  let p = params in
  let rng = Prng.create ~seed:p.seed in
  let nodes = Array.init p.nodes (fun _ -> System_ops.new_domain sys) in
  let seg = System_ops.new_segment sys ~name:"dsm" ~pages:p.pages () in
  (* attached with no rights: every first touch behaves like a remote page *)
  Array.iter (fun n -> System_ops.attach sys n seg Rights.none) nodes;
  let dir = Array.init p.pages (fun _ -> { readers = []; writer = None }) in
  let zipf = Zipf.create ~n:p.pages ~theta:p.theta in
  let read_faults = ref 0
  and write_faults = ref 0
  and invalidations = ref 0
  and updates = ref 0 in
  (* network latency is a workload cost, not a machine op: charged through
     the SYSTEM interface so a trace replay re-applies it *)
  let charge_network () =
    System_ops.charge_external sys ~cycles:p.remote_fetch_cycles ()
  in
  let cur = ref 0 in
  System_ops.switch_domain sys nodes.(0);
  for step = 0 to p.refs - 1 do
    if p.switch_period > 0 && step > 0 && step mod p.switch_period = 0
    then begin
      cur := (!cur + 1) mod p.nodes;
      System_ops.switch_domain sys nodes.(!cur)
    end;
    let n = !cur in
    let idx = Zipf.sample zipf rng in
    let va = Segment.page_va seg idx in
    let st = dir.(idx) in
    let kind =
      if Prng.bernoulli rng p.write_frac then Access.Write else Access.Read
    in
    match kind with
    | Access.Read | Access.Execute ->
        System_ops.with_fault_handler sys Access.Read va ~handler:(fun () ->
            (* Get Readable: fetch a copy, demote any writer to read *)
            incr read_faults;
            charge_network ();
            (match (p.protocol, st.writer) with
            | Invalidate, Some w when w <> n ->
                (* the writer is demoted to a read-shared copy *)
                System_ops.grant sys nodes.(w) va Rights.r;
                st.readers <- w :: st.readers;
                st.writer <- None
            | (Invalidate | Update), _ ->
                (* under write-update the writer keeps its copy; new
                   readers simply join the update set *)
                ());
            System_ops.grant sys nodes.(n) va Rights.r;
            if not (List.mem n st.readers) then st.readers <- n :: st.readers)
    | Access.Write -> begin
        match p.protocol with
        | Invalidate ->
            System_ops.with_fault_handler sys Access.Write va
              ~handler:(fun () ->
                (* Get Writable: invalidate every other copy, exclusive *)
                incr write_faults;
                charge_network ();
                List.iter
                  (fun r ->
                    if r <> n then begin
                      incr invalidations;
                      System_ops.grant sys nodes.(r) va Rights.none
                    end)
                  st.readers;
                (match st.writer with
                | Some w when w <> n ->
                    incr invalidations;
                    System_ops.grant sys nodes.(w) va Rights.none
                | Some _ | None -> ());
                st.readers <- [];
                st.writer <- Some n;
                System_ops.grant sys nodes.(n) va Rights.rw)
        | Update -> begin
            System_ops.with_fault_handler sys Access.Write va
              ~handler:(fun () ->
                (* first write from this node: obtain a writable copy, but
                   readers keep theirs (no per-domain revocations) *)
                incr write_faults;
                charge_network ();
                (match st.writer with
                | Some w when w <> n ->
                    (* previous writer becomes an ordinary reader *)
                    System_ops.grant sys nodes.(w) va Rights.r;
                    if not (List.mem w st.readers) then
                      st.readers <- w :: st.readers
                | Some _ | None -> ());
                st.writer <- Some n;
                if not (List.mem n st.readers) then
                  st.readers <- n :: st.readers;
                System_ops.grant sys nodes.(n) va Rights.rw);
            (* every write pushes the new value to each remote copy *)
            let remote =
              List.length (List.filter (fun r -> r <> n) st.readers)
            in
            if remote > 0 then begin
              updates := !updates + remote;
              System_ops.charge_external sys
                ~cycles:(remote * p.remote_fetch_cycles / 10) ()
            end
          end
      end
  done;
  {
    read_faults = !read_faults;
    write_faults = !write_faults;
    invalidations = !invalidations;
    updates = !updates;
  }
