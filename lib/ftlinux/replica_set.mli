(** The replica-lifecycle vocabulary of a {!Cluster}: a set is in one
    lifecycle state, runs at one epoch, and is made of members each
    carrying [(role, epoch)]. *)

open Ftsim_hw

type lifecycle =
  | Protected  (** every planned replica is live and replicating *)
  | Degraded
      (** a replica died; the survivor serves alone — outputs release
          unprotected until re-protection completes *)
  | Regenerating
      (** a fresh backup is booting/catching up while the primary keeps
          serving; ends in [Protected] (epoch switch) or back in
          [Degraded] (regeneration target died — clean abort) *)
  | Outage  (** no replica can serve *)

val lifecycle_label : lifecycle -> string

type role = Primary | Backup

(** Where a fault lands, resolved to a partition only when it fires:
    roles move at every takeover and epoch switch. *)
type target =
  | T_primary  (** the partition holding the primary role *)
  | T_backup of int
      (** backup slot [i mod] the number of backups; after a takeover the
          winner's slot holds the dead primary *)

type member = {
  m_role : role;
  m_epoch : int;  (** epoch at which this replica joined the set *)
  m_partition : Partition.t;
}
