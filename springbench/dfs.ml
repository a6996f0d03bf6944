(* dfs: 16 clients on a 4-shard [Sp_cluster] with leases.  Each client
   works in its own top-level component: it reopens files through the
   lease cache, does 4 KB reads and 1 KB writes with a [sync_path] every
   fourth write, and stats files — the only workload where [Sp_dfs.Net],
   the lease cache, the DFS front and the mirrored journaled shards run.

   At the end, reads through [Cluster.shard_top] (which bypass the
   client caches) must equal the model, no client may have served a
   stale entry, and fsck must be clean on both twins of every shard. *)

module H = Harness
module F = Sp_core.File
module S = Sp_core.Stackable
module CL = Sp_cluster.Cluster
module Rng = Sp_fault.Rng
module Sname = Sp_naming.Sname

let clients = 16
let rounds = 40
let nodes = 4
let files_per_client = 4
let file_pages = 4
let sync_every = 4
let arrival_gap_ns = 20_000

let file_name k j = Printf.sprintf "c%02d/f%d" k j

let run h =
  H.in_world "d" @@ fun tag ->
  let net = Sp_dfs.Net.create ~seed:1 () in
  let size = file_pages * H.ps in
  let slots = size / H.kb in
  let model =
    Array.init (clients * files_per_client) (fun id ->
        let b = Bytes.create size in
        for s = 0 to slots - 1 do
          Bytes.blit (H.record ~file:id ~slot:s ~version:0) 0 b (s * H.kb) H.kb
        done;
        b)
  in
  let t, conns, handles =
    H.setup h (fun () ->
        let t = CL.make ~name:tag ~net ~nodes () in
        let conns = Array.init clients (fun k -> CL.connect t ~node:(Printf.sprintf "%s-c%02d" tag k)) in
        let handles =
          Array.init clients (fun k ->
              CL.mkdir conns.(k) (Sname.of_string (Printf.sprintf "c%02d" k));
              Array.init files_per_client (fun j ->
                  let f =
                    H.setup_call h Create (fun () ->
                        CL.create conns.(k) (Sname.of_string (file_name k j)))
                  in
                  ignore
                    (H.setup_call h Write (fun () ->
                         F.write f ~pos:0 model.((k * files_per_client) + j)));
                  f))
        in
        Array.iter CL.sync_all conns;
        (* Warm the lease caches: every client has opened its files. *)
        Array.iteri
          (fun k c ->
            for j = 0 to files_per_client - 1 do
              ignore (CL.open_file c (Sname.of_string (file_name k j)))
            done)
          conns;
        (t, conns, handles))
  in
  Fun.protect ~finally:(fun () -> CL.shutdown t) @@ fun () ->
  let disks =
    List.concat_map
      (fun i ->
        let a, b = CL.shard_disks t i in
        [ a; b ])
      (List.init nodes Fun.id)
  in
  let world =
    {
      H.no_world with
      disks;
      net = Some net;
      cluster_clients = (fun () -> Array.to_list (Array.map CL.client_stats conns));
    }
  in
  let versions = Array.make_matrix (clients * files_per_client) slots 0 in
  let client k () =
    let rng = Rng.create ((h.H.seed * 7919) + k) in
    let c = conns.(k) in
    let writes = ref 0 in
    Sp_sched.sleep (k * arrival_gap_ns);
    (* 5 reopens, 7 page reads, 5 record writes, 3 stats. *)
    H.rounds h ~rounds
      [ `P; `R; `W; `R; `T; `P; `R; `W; `R; `P; `W; `R; `T; `P; `W; `R; `P; `W; `T; `R ]
      (fun o ->
        let j = Rng.int rng files_per_client in
        let id = (k * files_per_client) + j in
        match o with
        | `P ->
            handles.(k).(j) <-
              H.call h Open (fun () -> CL.open_file c (Sname.of_string (file_name k j)))
        | `R ->
            let p = Rng.int rng file_pages in
            let got =
              H.call h Read (fun () -> F.read handles.(k).(j) ~pos:(p * H.ps) ~len:H.ps)
            in
            H.check h (H.equal_at got ~off:(p * H.ps) model.(id)) (fun () ->
                Printf.sprintf "%s page %d read wrong bytes" (file_name k j) p)
        | `W ->
            let s = Rng.int rng slots in
            let v = versions.(id).(s) + 1 in
            versions.(id).(s) <- v;
            let data = H.record ~file:id ~slot:s ~version:v in
            Bytes.blit data 0 model.(id) (s * H.kb) H.kb;
            ignore (H.call h Write (fun () -> F.write handles.(k).(j) ~pos:(s * H.kb) data));
            H.wrote h H.kb;
            incr writes;
            if !writes mod sync_every = 0 then
              H.call h Sync (fun () -> CL.sync_path c (Sname.of_string (file_name k j)))
        | `T ->
            let a = H.call h Stat (fun () -> F.stat handles.(k).(j)) in
            H.check h (a.Sp_vm.Attr.len = size) (fun () ->
                Printf.sprintf "%s stat length %d" (file_name k j) a.Sp_vm.Attr.len))
  in
  H.measure h world ~seed:h.H.seed (List.init clients client);
  (match h.H.mutation with
  | Some H.Flip_byte -> H.flip_first_byte model.(0)
  | _ -> ());
  Array.iteri
    (fun k c ->
      H.check h ((CL.client_stats c).CL.cs_stale_serves = 0) (fun () ->
          Printf.sprintf "client %d served a stale cache entry" k))
    conns;
  for i = 0 to nodes - 1 do
    S.sync (CL.shard_top t i)
  done;
  Array.iteri
    (fun id expected ->
      let path = Sname.of_string (file_name (id / files_per_client) (id mod files_per_client)) in
      let got = F.read_all (S.open_file (CL.shard_top t (CL.owner t path)) path) in
      H.check h (Bytes.equal got expected) (fun () ->
          Printf.sprintf "%s on its shard differs from the model" (Sname.to_string path)))
    model;
  List.iteri
    (fun i d ->
      List.iter
        (fun p ->
          H.problem h (Format.asprintf "fsck shard %d twin %d: %a" (i / 2) (i mod 2)
                         Sp_sfs.Fsck.pp_problem p))
        (Sp_sfs.Fsck.check ~verify_checksums:true d))
    disks
