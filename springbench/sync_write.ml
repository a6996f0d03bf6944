(* sync-write: 32 clients on a journaled, checksummed two-domain SFS.
   Each client writes 1 KB records into its own files, syncs every fourth
   write and reads its own records in between — group commit, the
   journal, checksums and the disk elevator do the work.  All written
   data stays within the VMM's pages (an eviction push that suspends
   loses concurrent writes, F2).

   The run ends in a crash: the stack is abandoned without a final sync,
   the journal is replayed with [Disk_layer.recover], fsck verifies the
   checksums, and every 1 KB block must hold the version last synced
   before the crash or one written after that sync — never an older
   one. *)

module H = Harness
module F = Sp_core.File
module S = Sp_core.Stackable
module Rng = Sp_fault.Rng
module Sname = Sp_naming.Sname

let clients = 32
let rounds = 80
let files_per_client = 2
let slots = 16  (* 1 KB records per file *)
let sync_every = 4
let arrival_gap_ns = 20_000

let file_id k j = (k * files_per_client) + j
let file_name k j = Printf.sprintf "c%02d.%d" k j

(* Per block: the newest version written, and the floor — the version
   the last completed sync covered. *)
type block = { mutable written : int; mutable floor : int }

let run h =
  H.in_world "j" @@ fun tag ->
  let disk = Sp_blockdev.Disk.create ~label:(tag ^ "-disk") ~blocks:4096 () in
  let vmm = Sp_vm.Vmm.create ~node:tag ("vmm-" ^ tag) in
  let n_files = clients * files_per_client in
  let model = Array.init n_files (fun _ -> Array.init slots (fun _ -> { written = 0; floor = 0 })) in
  let fs, files =
    H.setup h (fun () ->
        Sp_sfs.Disk_layer.mkfs ~journal:true disk;
        let fs =
          Sp_coherency.Spring_sfs.make_split ~node:tag ~vmm ~name:tag ~same_domain:false
            disk
        in
        let files =
          Array.init n_files (fun id ->
              let f =
                H.setup_call h Create (fun () ->
                    S.create fs
                      (Sname.of_string
                         (file_name (id / files_per_client) (id mod files_per_client))))
              in
              for s = 0 to slots - 1 do
                ignore
                  (H.setup_call h Write (fun () ->
                       F.write f ~pos:(s * H.kb) (H.record ~file:id ~slot:s ~version:0)))
              done;
              f)
        in
        S.sync fs;
        Array.iter (fun f -> ignore (F.read_all f)) files;
        (fs, files))
  in
  let dl = Sp_coherency.Spring_sfs.disk_layer fs in
  let world =
    {
      H.no_world with
      disks = [ disk ];
      vmms = [ vmm ];
      journals = (fun () -> Option.to_list (Sp_sfs.Disk_layer.journal_stats dl));
    }
  in
  let client k () =
    let rng = Rng.create ((h.H.seed * 7919) + k) in
    Sp_sched.sleep (k * arrival_gap_ns);
    let writes = ref 0 in
    (* 14 record writes and 6 read-backs. *)
    H.rounds h ~rounds
      [ `W; `W; `R; `W; `W; `R; `W; `W; `R; `W; `W; `W; `R; `W; `W; `R; `W; `W; `R; `W ]
      (fun o ->
        let id = file_id k (Rng.int rng files_per_client) in
        let f = files.(id) and s = Rng.int rng slots in
        let b = model.(id).(s) in
        match o with
        | `R ->
            let got = H.call h Read (fun () -> F.read f ~pos:(s * H.kb) ~len:H.kb) in
            H.check h
              (Bytes.equal got (H.record ~file:id ~slot:s ~version:b.written))
              (fun () -> Printf.sprintf "file %d record %d read back wrong bytes" id s)
        | `W ->
            b.written <- b.written + 1;
            let data = H.record ~file:id ~slot:s ~version:b.written in
            ignore (H.call h Write (fun () -> F.write f ~pos:(s * H.kb) data));
            H.wrote h H.kb;
            incr writes;
            if !writes mod sync_every = 0 then begin
              (* Everything this client wrote to the file before the sync
                 is covered once it returns. *)
              let covered = Array.map (fun b -> b.written) model.(id) in
              H.call h Sync (fun () -> F.sync f);
              Array.iteri (fun s v -> model.(id).(s).floor <- max model.(id).(s).floor v) covered
            end)
  in
  H.measure h world ~seed:h.H.seed (List.init clients client);
  (match h.H.mutation with
  | Some H.Advance_synced ->
      let b = model.(0).(0) in
      b.floor <- b.written + 1
  | _ -> ());
  (* Crash: abandon the stack without a final sync, replay the journal,
     check the volume and the durability floor of every block. *)
  ignore (Sp_sfs.Disk_layer.recover disk);
  List.iter
    (fun p -> H.problem h (Format.asprintf "fsck: %a" Sp_sfs.Fsck.pp_problem p))
    (Sp_sfs.Fsck.check ~verify_checksums:true disk);
  let fresh = Sp_sfs.Disk_layer.mount ~node:tag ~name:(tag ^ ".check") disk in
  Array.iteri
    (fun id blocks ->
      let got =
        F.read_all
          (S.open_file fresh
             (Sname.of_string (file_name (id / files_per_client) (id mod files_per_client))))
      in
      Array.iteri
        (fun s b ->
          let ok =
            Bytes.length got >= (s + 1) * H.kb
            &&
            let v = H.record_version got ~off:(s * H.kb) in
            v >= b.floor && v <= b.written
            && H.equal_at (H.record ~file:id ~slot:s ~version:v) ~off:(s * H.kb) got
          in
          H.check h ok (fun () ->
              Printf.sprintf "file %d block %d lost its synced version %d after the crash" id
                s b.floor))
        blocks)
    model
