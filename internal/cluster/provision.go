package cluster

import (
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/ticket"
)

// Provisioning: the serializable cluster material a multi-process
// deployment shares out of band. `dlad provision` writes one common
// file plus one private file per node and one for the ticket issuer;
// `dlad run` and dlactl load them.

// ErrBadProvision reports provisioning material this build cannot use:
// undecodable files, or keys and seeds of the wrong length. Files
// written before node keys moved to Ed25519 (RSA key objects) fail
// here; re-provision the cluster.
var ErrBadProvision = errors.New("cluster: malformed provision material")

// CommonProvision is the public, cluster-wide material. Keys are
// Ed25519, base64 in JSON.
type CommonProvision struct {
	Roster    []string                     `json:"roster"`
	Addresses map[string]string            `json:"addresses"`
	Partition logmodel.PartitionSpec       `json:"partition"`
	GroupBits int                          `json:"group_bits"`
	AccN      *big.Int                     `json:"acc_n"`
	AccX0     *big.Int                     `json:"acc_x0"`
	PeerKeys  map[string]ed25519.PublicKey `json:"peer_keys"`
	IssuerPub ed25519.PublicKey            `json:"issuer_pub"`
	FirstGLSN logmodel.GLSN                `json:"first_glsn"`
}

// NodeProvision is one node's private key: its Ed25519 seed.
type NodeProvision struct {
	ID   string `json:"id"`
	Seed []byte `json:"seed"`
}

// IssuerProvision is the ticket issuer's private key: its Ed25519 seed.
type IssuerProvision struct {
	Seed []byte `json:"seed"`
}

// Provision exports the bootstrap into serializable pieces. addrs maps
// node IDs to their listen addresses.
func (b *Bootstrap) Provision(addrs map[string]string) (*CommonProvision, map[string]*NodeProvision, *IssuerProvision) {
	common := &CommonProvision{
		Roster:    append([]string(nil), b.Roster...),
		Addresses: addrs,
		Partition: b.Partition.Spec(),
		GroupBits: b.Group.Bits(),
		AccN:      b.AccParams.N,
		AccX0:     b.AccParams.X0,
		PeerKeys:  make(map[string]ed25519.PublicKey, len(b.PeerKeys)),
		IssuerPub: b.Issuer.Public(),
		FirstGLSN: b.FirstGLSN,
	}
	for id, pk := range b.PeerKeys {
		common.PeerKeys[id] = pk
	}
	nodes := make(map[string]*NodeProvision, len(b.Signers))
	for id, signer := range b.Signers {
		nodes[id] = &NodeProvision{ID: id, Seed: signer.Seed()}
	}
	return common, nodes, &IssuerProvision{Seed: b.Issuer.Seed()}
}

// RestoreBootstrap rebuilds a Bootstrap from provisioned material. The
// issuer may be nil (nodes do not need the issuer's private key); then
// Issuer-dependent operations are unavailable. Every key and seed is
// length-checked here, so hostile material fails with ErrBadProvision
// instead of reaching ed25519 (which panics on a short key).
func RestoreBootstrap(common *CommonProvision, nodes map[string]*NodeProvision, issuer *IssuerProvision) (*Bootstrap, error) {
	part, err := logmodel.FromSpec(common.Partition)
	if err != nil {
		return nil, fmt.Errorf("cluster: restoring partition: %w", err)
	}
	group, err := mathx.StandardGroup(common.GroupBits)
	if err != nil {
		return nil, fmt.Errorf("cluster: restoring group: %w", err)
	}
	acc := &accumulator.Params{N: common.AccN, X0: common.AccX0}
	if err := acc.Validate(); err != nil {
		return nil, err
	}
	if len(common.IssuerPub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("%w: issuer key is %d bytes, want %d", ErrBadProvision, len(common.IssuerPub), ed25519.PublicKeySize)
	}
	b := &Bootstrap{
		Roster:    append([]string(nil), common.Roster...),
		Partition: part,
		Group:     group,
		AccParams: acc,
		IssuerPub: common.IssuerPub,
		Signers:   make(map[string]ed25519.PrivateKey),
		PeerKeys:  make(map[string]ed25519.PublicKey, len(common.PeerKeys)),
		FirstGLSN: common.FirstGLSN,
	}
	for id, pk := range common.PeerKeys {
		if len(pk) != ed25519.PublicKeySize {
			return nil, fmt.Errorf("%w: key of %s is %d bytes, want %d", ErrBadProvision, id, len(pk), ed25519.PublicKeySize)
		}
		b.PeerKeys[id] = pk
	}
	for id, np := range nodes {
		if len(np.Seed) != ed25519.SeedSize {
			return nil, fmt.Errorf("%w: seed of %s is %d bytes, want %d", ErrBadProvision, id, len(np.Seed), ed25519.SeedSize)
		}
		signer := ed25519.NewKeyFromSeed(np.Seed)
		if !b.PeerKeys[id].Equal(signer.Public()) {
			return nil, fmt.Errorf("%w: seed of %s does not match its roster key", ErrBadProvision, id)
		}
		b.Signers[id] = signer
	}
	if issuer != nil {
		iss, err := ticket.NewIssuerFromSeed(issuer.Seed)
		if err != nil {
			return nil, fmt.Errorf("%w: restoring issuer: %v", ErrBadProvision, err)
		}
		b.Issuer = iss
	}
	return b, nil
}

// File names within a provisioning directory.
const (
	CommonFile = "common.json"
	IssuerFile = "issuer.json"
)

// NodeFile names a node's private provision file.
func NodeFile(id string) string { return "node-" + id + ".json" }

// SaveProvision writes the provisioning files into dir (created if
// needed). Private files are mode 0600.
func SaveProvision(dir string, common *CommonProvision, nodes map[string]*NodeProvision, issuer *IssuerProvision) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cluster: creating provision dir: %w", err)
	}
	write := func(name string, v any, mode os.FileMode) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return fmt.Errorf("cluster: encoding %s: %w", name, err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, mode); err != nil {
			return fmt.Errorf("cluster: writing %s: %w", path, err)
		}
		return nil
	}
	if err := write(CommonFile, common, 0o644); err != nil {
		return err
	}
	for id, np := range nodes {
		if err := write(NodeFile(id), np, 0o600); err != nil {
			return err
		}
	}
	return write(IssuerFile, issuer, 0o600)
}

// LoadCommon reads the public provisioning file.
func LoadCommon(dir string) (*CommonProvision, error) {
	var common CommonProvision
	if err := readJSON(filepath.Join(dir, CommonFile), &common); err != nil {
		return nil, err
	}
	return &common, nil
}

// LoadNode reads one node's private provisioning file.
func LoadNode(dir, id string) (*NodeProvision, error) {
	var np NodeProvision
	if err := readJSON(filepath.Join(dir, NodeFile(id)), &np); err != nil {
		return nil, err
	}
	return &np, nil
}

// LoadIssuer reads the issuer's private provisioning file.
func LoadIssuer(dir string) (*IssuerProvision, error) {
	var ip IssuerProvision
	if err := readJSON(filepath.Join(dir, IssuerFile), &ip); err != nil {
		return nil, err
	}
	return &ip, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("cluster: reading %s: %w", path, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w: decoding %s: %v", ErrBadProvision, path, err)
	}
	return nil
}
