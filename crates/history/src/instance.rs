//! Entity instances and their meta-data.
//!
//! §4.1: "meta-data such as user-id and creation time-stamp are
//! recorded. The user is also able to annotate entity instances
//! providing both a name and a more detailed textual description … An
//! instance's most important meta-data is its design history which
//! records the entity instances used to create that instance."

use std::fmt;

use hercules_schema::EntityTypeId;
use serde::{Deserialize, Serialize};

use crate::clock::Timestamp;
use crate::derivation::Derivation;
use crate::store::BlobHash;

/// Identifier of an entity instance in one [`HistoryDb`].
///
/// [`HistoryDb`]: crate::HistoryDb
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstanceId(pub(crate) u64);

impl InstanceId {
    /// Returns the raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Creates an id from a raw value (deserialization and tests).
    pub fn from_raw(raw: u64) -> InstanceId {
        InstanceId(raw)
    }

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// User-visible meta-data attached to every instance (Fig. 9's browser
/// columns: user, date, name/comment — plus keywords for its keyword
/// filter).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Metadata {
    /// User-id of the creator (`jbb`, `director`, `sutton` in Fig. 9).
    pub user: String,
    /// Logical creation time.
    pub created: Timestamp,
    /// Short annotation name ("Low pass filter").
    pub name: String,
    /// Longer textual description.
    pub comment: String,
    /// Keywords for browser filtering.
    pub keywords: Vec<String>,
}

impl Metadata {
    /// Creates metadata with just a user; the database fills the
    /// timestamp at record time.
    pub fn by(user: &str) -> Metadata {
        Metadata {
            user: user.to_owned(),
            ..Metadata::default()
        }
    }

    /// Sets the annotation name.
    pub fn named(mut self, name: &str) -> Metadata {
        self.name = name.to_owned();
        self
    }

    /// Sets the comment.
    pub fn commented(mut self, comment: &str) -> Metadata {
        self.comment = comment.to_owned();
        self
    }

    /// Adds a keyword.
    pub fn keyword(mut self, kw: &str) -> Metadata {
        self.keywords.push(kw.to_owned());
        self
    }
}

/// One design object: an instance of a schema entity type, with its
/// meta-data and (for derived objects) the *immediate* derivation that
/// created it.
///
/// Storing only the immediate tool and inputs is the paper's key storage
/// claim (§1): "by associating a small amount of meta-data with each
/// design object, indicating the immediate tool and data used in
/// creating that object, the complete derivation history of a design may
/// be stored."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityInstance {
    pub(crate) id: InstanceId,
    pub(crate) entity: EntityTypeId,
    pub(crate) meta: Metadata,
    /// Blob-store key of the physical data; instances with identical
    /// data share one blob (footnote 5's shared RCS files).
    pub(crate) data: Option<BlobHash>,
    pub(crate) derivation: Option<Derivation>,
}

impl EntityInstance {
    /// Returns the instance id.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// Returns the entity type this instance belongs to.
    pub fn entity(&self) -> EntityTypeId {
        self.entity
    }

    /// Returns the user-visible meta-data.
    pub fn meta(&self) -> &Metadata {
        &self.meta
    }

    /// Returns the blob-store key of the instance's physical data, if it
    /// has any (tool instances, for example, may be pure references).
    pub fn data(&self) -> Option<BlobHash> {
        self.data
    }

    /// Returns the immediate derivation, or `None` for primary
    /// (imported) instances.
    pub fn derivation(&self) -> Option<&Derivation> {
        self.derivation.as_ref()
    }

    /// Returns `true` if this instance was imported rather than derived.
    pub fn is_primary(&self) -> bool {
        self.derivation.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_builder() {
        let m = Metadata::by("sutton")
            .named("Operational Amplifier")
            .commented("two-stage")
            .keyword("analog")
            .keyword("opamp");
        assert_eq!(m.user, "sutton");
        assert_eq!(m.name, "Operational Amplifier");
        assert_eq!(m.comment, "two-stage");
        assert_eq!(m.keywords, vec!["analog", "opamp"]);
        assert_eq!(m.created, Timestamp(0));
    }

    #[test]
    fn instance_id_round_trips() {
        let id = InstanceId::from_raw(9);
        assert_eq!(id.raw(), 9);
        assert_eq!(id.to_string(), "i9");
    }
}
