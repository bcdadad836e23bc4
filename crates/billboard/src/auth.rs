//! Simulated message authentication for the billboard.
//!
//! The model *assumes* "each message on the billboard is reliably tagged by
//! the identity of the posting player" (§2.1). Inside the simulation engine
//! that assumption is discharged trivially (the transport stamps authors);
//! this module shows how a deployment would discharge it instead: per-player
//! keys, a keyed tag over the post contents, and an auditable signed log.
//!
//! ## Not cryptography
//!
//! The tag is a SplitMix64-style keyed mix — deterministic, fast, and good
//! enough to *simulate* unforgeability inside experiments (a player without
//! the key cannot produce a valid tag except by 2⁻⁶⁴ luck). It is **not** a
//! cryptographic MAC; a real deployment would swap in HMAC or signatures.
//! The API is shaped so that swap is a one-function change.

use crate::board::Billboard;
use crate::error::BillboardError;
use crate::ids::{ObjectId, PlayerId, Round, Seq};
use crate::post::ReportKind;
use std::fmt;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A player's posting credential, issued by the transport.
///
/// Holding the key is what lets a player post *as itself*; the engine's
/// Byzantine players each hold only their own key, which is exactly the
/// §2.1 "reliably tagged" guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthKey {
    player: PlayerId,
    secret: u64,
}

/// An authentication tag over one post's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag(pub u64);

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag:{:016x}", self.0)
    }
}

/// Authentication failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// The presented key does not belong to the claimed author.
    WrongKey {
        /// The claimed author.
        claimed: PlayerId,
        /// The key's real owner.
        key_owner: PlayerId,
    },
    /// The presented key's secret does not match the registry.
    BadSecret {
        /// The claimed author.
        claimed: PlayerId,
    },
    /// The underlying billboard rejected the post.
    Board(BillboardError),
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::WrongKey { claimed, key_owner } => {
                write!(
                    f,
                    "key of {key_owner} presented for a post claimed by {claimed}"
                )
            }
            AuthError::BadSecret { claimed } => {
                write!(f, "invalid secret presented for {claimed}")
            }
            AuthError::Board(e) => write!(f, "billboard rejected the signed post: {e}"),
        }
    }
}

impl std::error::Error for AuthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuthError::Board(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BillboardError> for AuthError {
    fn from(e: BillboardError) -> Self {
        AuthError::Board(e)
    }
}

/// The transport's key registry and tag algorithm.
#[derive(Debug, Clone)]
pub struct Authenticator {
    secrets: Vec<u64>,
}

impl Authenticator {
    /// Derives per-player secrets from a master secret.
    pub fn new(n_players: u32, master_secret: u64) -> Self {
        Authenticator {
            secrets: (0..n_players)
                .map(|p| mix(master_secret ^ mix(u64::from(p) | (1 << 48))))
                .collect(),
        }
    }

    /// Number of registered players.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "secrets is populated from a `0..n: u32` range at construction, so its length always fits a u32"
    )]
    pub fn n_players(&self) -> u32 {
        self.secrets.len() as u32
    }

    /// Issues `player`'s credential (done once, out of band).
    ///
    /// # Panics
    /// Panics if `player` is outside the registry.
    pub fn issue_key(&self, player: PlayerId) -> AuthKey {
        AuthKey {
            player,
            secret: self.secrets[player.index()],
        }
    }

    /// Computes the tag a post by `author` with these contents must carry.
    ///
    /// # Panics
    /// Panics if `author` is outside the registry.
    pub fn tag(
        &self,
        round: Round,
        author: PlayerId,
        object: ObjectId,
        value: f64,
        kind: ReportKind,
    ) -> Tag {
        let secret = self.secrets[author.index()];
        let mut h = secret;
        h = mix(h ^ round.as_u64());
        h = mix(h ^ u64::from(author.0));
        h = mix(h ^ u64::from(object.0));
        h = mix(h ^ value.to_bits());
        h = mix(h ^ matches!(kind, ReportKind::Positive) as u64);
        Tag(h)
    }

    /// Verifies a stored post against its tag.
    pub fn verify(&self, post: &crate::post::Post, tag: Tag) -> bool {
        self.tag(post.round, post.author, post.object, post.value, post.kind) == tag
    }
}

/// What an audit found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// Sequence numbers of posts whose tags failed verification.
    pub forged: Vec<Seq>,
    /// Total posts audited.
    pub audited: usize,
}

impl AuditReport {
    /// `true` iff every audited post verified.
    pub fn is_clean(&self) -> bool {
        self.forged.is_empty()
    }
}

/// A billboard whose every post carries a verified authentication tag.
///
/// `append_signed` refuses posts whose presented credential does not match
/// the claimed author — the mechanical version of §2.1's reliable author
/// tags. The stored tags make the whole log auditable after the fact.
#[derive(Debug, Clone)]
pub struct SignedBillboard {
    board: Billboard,
    tags: Vec<Tag>,
    auth: Authenticator,
}

impl SignedBillboard {
    /// A signed billboard for the given universe, keyed by `master_secret`.
    pub fn new(n_players: u32, n_objects: u32, master_secret: u64) -> Self {
        SignedBillboard {
            board: Billboard::new(n_players, n_objects),
            tags: Vec::new(),
            auth: Authenticator::new(n_players, master_secret),
        }
    }

    /// The transport-side authenticator (for issuing keys and auditing).
    pub fn authenticator(&self) -> &Authenticator {
        &self.auth
    }

    /// The underlying (read-only) billboard.
    pub fn board(&self) -> &Billboard {
        &self.board
    }

    /// Appends a post on behalf of `key`'s owner.
    ///
    /// # Errors
    ///
    /// * [`AuthError::WrongKey`] if `key` belongs to a different player than
    ///   `author` — impersonation is rejected, which is the whole point;
    /// * [`AuthError::BadSecret`] if the key's secret is stale or forged;
    /// * [`AuthError::Board`] if the billboard's own integrity rules reject
    ///   the post.
    pub fn append_signed(
        &mut self,
        round: Round,
        author: PlayerId,
        object: ObjectId,
        value: f64,
        kind: ReportKind,
        key: AuthKey,
    ) -> Result<Seq, AuthError> {
        if key.player != author {
            return Err(AuthError::WrongKey {
                claimed: author,
                key_owner: key.player,
            });
        }
        if author.index() >= self.auth.secrets.len()
            || self.auth.secrets[author.index()] != key.secret
        {
            return Err(AuthError::BadSecret { claimed: author });
        }
        let seq = self.board.append(round, author, object, value, kind)?;
        let tag = self.auth.tag(round, author, object, value, kind);
        self.tags.push(tag);
        Ok(seq)
    }

    /// Re-verifies every stored tag.
    pub fn audit(&self) -> AuditReport {
        let mut forged = Vec::new();
        for (post, &tag) in self.board.posts().iter().zip(&self.tags) {
            if !self.auth.verify(post, tag) {
                forged.push(post.seq);
            }
        }
        AuditReport {
            forged,
            audited: self.board.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signed() -> SignedBillboard {
        SignedBillboard::new(4, 8, 0xDEAD_BEEF)
    }

    #[test]
    fn own_key_posts_succeed_and_audit_clean() {
        let mut sb = signed();
        let k1 = sb.authenticator().issue_key(PlayerId(1));
        let k2 = sb.authenticator().issue_key(PlayerId(2));
        sb.append_signed(
            Round(0),
            PlayerId(1),
            ObjectId(3),
            1.0,
            ReportKind::Positive,
            k1,
        )
        .unwrap();
        sb.append_signed(
            Round(1),
            PlayerId(2),
            ObjectId(4),
            0.0,
            ReportKind::Negative,
            k2,
        )
        .unwrap();
        let report = sb.audit();
        assert!(report.is_clean());
        assert_eq!(report.audited, 2);
        assert_eq!(sb.board().len(), 2);
    }

    #[test]
    fn impersonation_is_rejected() {
        let mut sb = signed();
        let k1 = sb.authenticator().issue_key(PlayerId(1));
        // player 1's key presented for a post claimed by player 2:
        let err = sb
            .append_signed(
                Round(0),
                PlayerId(2),
                ObjectId(0),
                1.0,
                ReportKind::Positive,
                k1,
            )
            .unwrap_err();
        assert!(matches!(err, AuthError::WrongKey { .. }));
        assert!(err.to_string().contains("p2"));
    }

    #[test]
    fn forged_secret_is_rejected() {
        let mut sb = signed();
        let forged = AuthKey {
            player: PlayerId(1),
            secret: 12345,
        };
        let err = sb
            .append_signed(
                Round(0),
                PlayerId(1),
                ObjectId(0),
                1.0,
                ReportKind::Positive,
                forged,
            )
            .unwrap_err();
        assert!(matches!(err, AuthError::BadSecret { .. }));
    }

    #[test]
    fn board_rules_still_apply() {
        let mut sb = signed();
        let k0 = sb.authenticator().issue_key(PlayerId(0));
        sb.append_signed(
            Round(5),
            PlayerId(0),
            ObjectId(0),
            1.0,
            ReportKind::Positive,
            k0,
        )
        .unwrap();
        let err = sb
            .append_signed(
                Round(4),
                PlayerId(0),
                ObjectId(0),
                1.0,
                ReportKind::Positive,
                k0,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            AuthError::Board(BillboardError::RoundRegression { .. })
        ));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn tags_bind_all_fields() {
        let auth = Authenticator::new(2, 99);
        let base = auth.tag(
            Round(1),
            PlayerId(0),
            ObjectId(2),
            1.5,
            ReportKind::Positive,
        );
        assert_ne!(
            base,
            auth.tag(
                Round(2),
                PlayerId(0),
                ObjectId(2),
                1.5,
                ReportKind::Positive
            )
        );
        assert_ne!(
            base,
            auth.tag(
                Round(1),
                PlayerId(1),
                ObjectId(2),
                1.5,
                ReportKind::Positive
            )
        );
        assert_ne!(
            base,
            auth.tag(
                Round(1),
                PlayerId(0),
                ObjectId(3),
                1.5,
                ReportKind::Positive
            )
        );
        assert_ne!(
            base,
            auth.tag(
                Round(1),
                PlayerId(0),
                ObjectId(2),
                1.6,
                ReportKind::Positive
            )
        );
        assert_ne!(
            base,
            auth.tag(
                Round(1),
                PlayerId(0),
                ObjectId(2),
                1.5,
                ReportKind::Negative
            )
        );
        // deterministic
        assert_eq!(
            base,
            auth.tag(
                Round(1),
                PlayerId(0),
                ObjectId(2),
                1.5,
                ReportKind::Positive
            )
        );
    }

    #[test]
    fn audit_flags_tampering() {
        // Simulate a corrupted store: verify against the wrong key registry.
        let mut sb = signed();
        let k0 = sb.authenticator().issue_key(PlayerId(0));
        sb.append_signed(
            Round(0),
            PlayerId(0),
            ObjectId(1),
            1.0,
            ReportKind::Positive,
            k0,
        )
        .unwrap();
        let other = Authenticator::new(4, 0xBAD);
        let post = &sb.board().posts()[0];
        assert!(
            !other.verify(post, sb.tags[0]),
            "different keys must not verify"
        );
        assert!(sb.audit().is_clean());
    }

    #[test]
    fn keys_are_distinct_per_player() {
        let auth = Authenticator::new(16, 7);
        let mut secrets: Vec<u64> = (0..16)
            .map(|p| auth.issue_key(PlayerId(p)).secret)
            .collect();
        secrets.sort_unstable();
        secrets.dedup();
        assert_eq!(secrets.len(), 16, "per-player secrets must be distinct");
        assert_eq!(auth.n_players(), 16);
    }
}
