(* warm-rw: 64 clients on the two-domain SFS (unjournaled, checksummed)
   with everything cached after set-up.  Every client reads a shared set
   of read-only files and keeps one private file that only it writes,
   reads back, stats and sometimes syncs — the door / bulk / VMM /
   coherency hot path does nearly all the work and the disk almost none.

   After the timed phase, in a quiet window, pairs of clients write the
   two halves of a fresh page of a probe file together (the F1 probe:
   concurrent faults on one page are not merged, so one half is lost).
   The end-of-run check syncs, mounts the device fresh, compares every
   byte with the model and runs fsck. *)

module H = Harness
module F = Sp_core.File
module S = Sp_core.Stackable
module Rng = Sp_fault.Rng
module Sname = Sp_naming.Sname

let clients = 64
let rounds = 60
let n_shared = 32
let shared_pages = 4
let private_slots = 16  (* 1 KB records: a 16 KB private file *)
let probe_pairs = 4
let arrival_gap_ns = 20_000

let shared_content i =
  let b = Bytes.create (shared_pages * H.ps) in
  for s = 0 to (shared_pages * H.ps / H.kb) - 1 do
    Bytes.blit (H.record ~file:(1000 + i) ~slot:s ~version:0) 0 b (s * H.kb) H.kb
  done;
  b

let run h =
  H.in_world "w" @@ fun tag ->
  let disk = Sp_blockdev.Disk.create ~label:(tag ^ "-disk") ~blocks:4096 () in
  let vmm = Sp_vm.Vmm.create ~node:tag ("vmm-" ^ tag) in
  let shared_model = Array.init n_shared shared_content in
  let private_model =
    Array.init clients (fun k ->
        let b = Bytes.create (private_slots * H.kb) in
        for s = 0 to private_slots - 1 do
          Bytes.blit (H.record ~file:k ~slot:s ~version:0) 0 b (s * H.kb) H.kb
        done;
        b)
  in
  let probe_model = Bytes.make (probe_pairs * H.ps) '\000' in
  let fs, shared, privates, probe =
    H.setup h (fun () ->
        Sp_sfs.Disk_layer.mkfs disk;
        let fs =
          Sp_coherency.Spring_sfs.make_split ~node:tag ~vmm ~name:tag ~same_domain:false
            disk
        in
        let make name content =
          let f = H.setup_call h Create (fun () -> S.create fs (Sname.of_string name)) in
          ignore (H.setup_call h Write (fun () -> F.write f ~pos:0 content));
          f
        in
        let shared =
          Array.init n_shared (fun i -> make (Printf.sprintf "s%02d" i) shared_model.(i))
        in
        let privates =
          Array.init clients (fun k -> make (Printf.sprintf "p%02d" k) private_model.(k))
        in
        let probe = H.setup_call h Create (fun () -> S.create fs (Sname.of_string "probe")) in
        F.truncate probe (probe_pairs * H.ps);
        S.sync fs;
        (* Warm every cache: the timed phase should find everything
           resident. *)
        Array.iter (fun f -> ignore (F.read_all f)) shared;
        Array.iter (fun f -> ignore (F.read_all f)) privates;
        (fs, shared, privates, probe))
  in
  let world = { H.no_world with disks = [ disk ]; vmms = [ vmm ] } in
  let versions = Array.make_matrix clients private_slots 0 in
  let client k () =
    let rng = Rng.create ((h.H.seed * 7919) + k) in
    let mine = privates.(k) in
    Sp_sched.sleep (k * arrival_gap_ns);
    (* 10 shared reads, 4 record writes, 3 read-backs, 2 stats, 1 sync. *)
    H.rounds h ~rounds
      [ `R; `W; `R; `B; `R; `T; `R; `W; `R; `B; `R; `W; `R; `Y; `R; `B; `R; `T; `W; `R ]
      (function
        | `R ->
            let i = Rng.int rng n_shared and p = Rng.int rng shared_pages in
            let got = H.call h Read (fun () -> F.read shared.(i) ~pos:(p * H.ps) ~len:H.ps) in
            H.check h (H.equal_at got ~off:(p * H.ps) shared_model.(i)) (fun () ->
                Printf.sprintf "shared s%02d page %d read wrong bytes" i p)
        | `W ->
            let s = Rng.int rng private_slots in
            let v = versions.(k).(s) + 1 in
            versions.(k).(s) <- v;
            let data = H.record ~file:k ~slot:s ~version:v in
            Bytes.blit data 0 private_model.(k) (s * H.kb) H.kb;
            ignore (H.call h Write (fun () -> F.write mine ~pos:(s * H.kb) data));
            H.wrote h H.kb
        | `B ->
            let s = Rng.int rng private_slots in
            let got = H.call h Read (fun () -> F.read mine ~pos:(s * H.kb) ~len:H.kb) in
            H.check h (H.equal_at got ~off:(s * H.kb) private_model.(k)) (fun () ->
                Printf.sprintf "p%02d record %d read back wrong bytes" k s)
        | `T ->
            let a = H.call h Stat (fun () -> F.stat mine) in
            H.check h (a.Sp_vm.Attr.len = private_slots * H.kb) (fun () ->
                Printf.sprintf "p%02d stat length %d" k a.Sp_vm.Attr.len)
        | `Y -> H.call h Sync (fun () -> F.sync mine))
  in
  H.measure h world ~seed:h.H.seed (List.init clients client);
  (* F1 probe: each pair writes the two halves of one fresh page of the
     probe file at the same instant.  The probe does not depend on the
     seed and is not timed. *)
  let half = H.ps / 2 in
  for pair = 0 to probe_pairs - 1 do
    let writes =
      List.init 2 (fun side ->
          let r = H.record ~file:(2000 + pair) ~slot:side ~version:1 in
          (side, Bytes.init half (fun i -> Bytes.get r (i mod H.kb))))
    in
    let writer (side, data) () =
      H.attempt h;
      ignore (F.write probe ~pos:((pair * H.ps) + (side * half)) data)
    in
    ignore (Sp_sched.run ~seed:0 (List.map writer writes));
    List.iter
      (fun (side, data) ->
        let pos = (pair * H.ps) + (side * half) in
        let got = F.read probe ~pos ~len:half in
        if Bytes.equal got data then Bytes.blit data 0 probe_model pos half
        else if H.equal_at got ~off:pos probe_model then H.fail h "F1"
        else H.problem h (Printf.sprintf "probe pair %d side %d read foreign bytes" pair side))
      writes
  done;
  (match h.H.mutation with
  | Some H.Flip_byte -> H.flip_first_byte private_model.(0)
  | _ -> ());
  (* End of run: sync, mount the device fresh, compare every byte. *)
  S.sync fs;
  let fresh = Sp_sfs.Disk_layer.mount ~node:tag ~name:(tag ^ ".check") disk in
  let compare name expected =
    let got = F.read_all (S.open_file fresh (Sname.of_string name)) in
    H.check h (Bytes.equal got expected) (fun () ->
        Printf.sprintf "%s differs from the model after remount" name)
  in
  Array.iteri (fun i m -> compare (Printf.sprintf "s%02d" i) m) shared_model;
  Array.iteri (fun k m -> compare (Printf.sprintf "p%02d" k) m) private_model;
  compare "probe" probe_model;
  List.iter
    (fun p -> H.problem h (Format.asprintf "fsck: %a" Sp_sfs.Fsck.pp_problem p))
    (Sp_sfs.Fsck.check ~verify_checksums:true disk)
