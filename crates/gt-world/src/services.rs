//! Known cryptocurrency services: the entities Chainalysis-style tagging
//! knows about.
//!
//! Victims overwhelmingly pay *from* centralized exchanges; scammers
//! cash out *to* exchanges, mixers, token contracts, other scams and
//! sanctioned entities. The directory creates those entities with
//! addresses on all three chains, funds them so they can move money,
//! and registers their addresses with the tag service.

use gt_addr::{Address, AddressGenerator, BtcAddress, Coin, EthAddress, XrpAddress};
use gt_chain::{Amount, ChainView};
use gt_cluster::{Category, TagService};
use gt_sim::{RngFactory, SimTime};
use gt_store::{StoreDecode, StoreEncode};
use rand::rngs::StdRng;
use rand::Rng;

/// One known service (e.g. an exchange) and its addresses.
#[derive(Debug, StoreEncode, StoreDecode)]
pub struct Service {
    pub name: String,
    pub category: Category,
    pub btc: Vec<BtcAddress>,
    pub eth: Vec<EthAddress>,
    pub xrp: Vec<XrpAddress>,
}

impl Service {
    /// A deterministic "hot wallet" address for a coin, by index.
    pub fn address(&self, coin: Coin, idx: usize) -> Address {
        match coin {
            Coin::Btc => Address::Btc(self.btc[idx % self.btc.len()]),
            Coin::Eth => Address::Eth(self.eth[idx % self.eth.len()]),
            Coin::Xrp => Address::Xrp(self.xrp[idx % self.xrp.len()]),
        }
    }
}

/// The directory of all known services.
#[derive(Debug, StoreEncode, StoreDecode)]
pub struct ServiceDirectory {
    pub exchanges: Vec<Service>,
    pub mixers: Vec<Service>,
    pub token_contracts: Vec<Service>,
    pub sanctioned: Vec<Service>,
    /// Unrelated scam operations (the "larger illicit ecosystem").
    pub other_scams: Vec<Service>,
}

/// Funding given to each service address so it can send payments.
const EXCHANGE_FLOAT_USD_EQUIV: u64 = 50; // in whole coins, per address — ample

impl ServiceDirectory {
    /// Build the directory: mint addresses, fund them on-chain, tag
    /// them, and (for BTC exchanges) co-spend once so each exchange
    /// forms a visible multi-input cluster.
    pub fn generate(
        rng_factory: &RngFactory,
        chains: &mut ChainView,
        tags: &mut TagService,
        genesis: SimTime,
    ) -> ServiceDirectory {
        let mut rng = rng_factory.rng("services");
        let mut gen = AddressGenerator::new(rng_factory.rng("service-addresses"));

        let make = |name: &str,
                    category: Category,
                    addrs_per_coin: usize,
                    gen: &mut AddressGenerator<StdRng>| {
            let mut svc = Service {
                name: name.to_string(),
                category,
                btc: Vec::new(),
                eth: Vec::new(),
                xrp: Vec::new(),
            };
            for _ in 0..addrs_per_coin {
                match gen.generate(Coin::Btc) {
                    Address::Btc(a) => svc.btc.push(a),
                    _ => unreachable!(),
                }
                match gen.generate(Coin::Eth) {
                    Address::Eth(a) => svc.eth.push(a),
                    _ => unreachable!(),
                }
                match gen.generate(Coin::Xrp) {
                    Address::Xrp(a) => svc.xrp.push(a),
                    _ => unreachable!(),
                }
            }
            svc
        };

        let exchange_names = [
            "Meridian Exchange",
            "HarborTrade",
            "Kestrel Markets",
            "AtlasCoin",
            "PolarisX",
            "Nimbus Digital",
        ];
        let exchanges: Vec<Service> = exchange_names
            .iter()
            .map(|n| make(n, Category::Exchange, 24, &mut gen))
            .collect();
        let mixers: Vec<Service> = ["TumbleWorks", "FogRelay"]
            .iter()
            .map(|n| make(n, Category::Mixing, 6, &mut gen))
            .collect();
        let token_contracts: Vec<Service> = ["WrappedFoo Token", "BazSwap LP", "QuuxDAO Token"]
            .iter()
            .map(|n| make(n, Category::TokenSmartContract, 4, &mut gen))
            .collect();
        let sanctioned: Vec<Service> = ["Blacklisted Broker Ltd", "Embargoed Desk"]
            .iter()
            .map(|n| make(n, Category::SanctionedEntity, 5, &mut gen))
            .collect();
        let other_scams: Vec<Service> = ["Ponzi Garden", "Rug Central", "HYIP Express"]
            .iter()
            .map(|n| make(n, Category::Scam, 8, &mut gen))
            .collect();

        let dir = ServiceDirectory {
            exchanges,
            mixers,
            token_contracts,
            sanctioned,
            other_scams,
        };

        // Tag every address.
        for svc in dir.all() {
            for &a in &svc.btc {
                tags.tag(Address::Btc(a), svc.category);
            }
            for &a in &svc.eth {
                tags.tag(Address::Eth(a), svc.category);
            }
            for &a in &svc.xrp {
                tags.tag(Address::Xrp(a), svc.category);
            }
        }

        // Fund the senders-to-be generously (exchanges pay victims'
        // withdrawals; scam ops consolidate).
        for svc in dir.all() {
            for &a in &svc.btc {
                chains
                    .btc
                    .coinbase(a, Amount(EXCHANGE_FLOAT_USD_EQUIV * 100_000_000), genesis)
                    .expect("genesis funding");
            }
            for &a in &svc.eth {
                chains
                    .eth
                    .mint(
                        a,
                        Amount(EXCHANGE_FLOAT_USD_EQUIV * 1_000 * 1_000_000_000),
                        genesis,
                    )
                    .expect("genesis funding");
            }
            for &a in &svc.xrp {
                chains
                    .xrp
                    .fund(
                        a,
                        Amount(EXCHANGE_FLOAT_USD_EQUIV * 1_000_000 * 1_000_000),
                        genesis,
                    )
                    .expect("genesis funding");
            }
        }

        // Exchanges visibly co-spend their BTC hot wallets once, so the
        // whole exchange becomes one multi-input cluster (how the real
        // tagging generalises from a few observed deposits). Spend one
        // UTXO from *every* hot address in a single transaction.
        for svc in &dir.exchanges {
            let mut inputs = Vec::new();
            let mut total = Amount::ZERO;
            for &a in &svc.btc {
                if let Some((op, txo)) = chains.btc.utxos_of(a).first().copied() {
                    inputs.push(op);
                    total = total.checked_add(txo.value).expect("bounded supply");
                }
            }
            let fee = Amount(10_000);
            let keep = rng.gen_range(1..5) * 100_000_000;
            let outputs = vec![
                gt_chain::TxOut {
                    address: svc.btc[1],
                    value: Amount(keep),
                },
                gt_chain::TxOut {
                    address: svc.btc[0],
                    value: total.saturating_sub(Amount(keep)).saturating_sub(fee),
                },
            ];
            chains
                .btc
                .submit(&inputs, &outputs, genesis)
                .expect("exchange consolidation");
        }

        dir
    }

    /// All services, every category.
    pub fn all(&self) -> impl Iterator<Item = &Service> {
        self.exchanges
            .iter()
            .chain(&self.mixers)
            .chain(&self.token_contracts)
            .chain(&self.sanctioned)
            .chain(&self.other_scams)
    }

    /// A random address of a given category (used by cash-out flows).
    pub fn random_of_category(
        &self,
        category: Category,
        coin: Coin,
        rng: &mut StdRng,
    ) -> Option<Address> {
        let pool: &[Service] = match category {
            Category::Exchange => &self.exchanges,
            Category::Mixing => &self.mixers,
            Category::TokenSmartContract => &self.token_contracts,
            Category::SanctionedEntity => &self.sanctioned,
            Category::Scam => &self.other_scams,
            _ => return None,
        };
        let svc = &pool[rng.gen_range(0..pool.len())];
        Some(svc.address(coin, rng.gen_range(0..1000)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_cluster::ClusterView;

    fn build() -> (ServiceDirectory, ChainView, TagService) {
        let factory = RngFactory::new(11);
        let mut chains = ChainView::new();
        let mut tags = TagService::new();
        let dir = ServiceDirectory::generate(
            &factory,
            &mut chains,
            &mut tags,
            SimTime::from_ymd(2020, 1, 1),
        );
        (dir, chains, tags)
    }

    #[test]
    fn services_are_tagged() {
        let (dir, _, tags) = build();
        let ex = &dir.exchanges[0];
        assert_eq!(
            tags.category_direct(Address::Btc(ex.btc[0])),
            Some(Category::Exchange)
        );
        assert_eq!(
            tags.category_direct(Address::Eth(dir.mixers[0].eth[0])),
            Some(Category::Mixing)
        );
        assert_eq!(
            tags.category_direct(Address::Xrp(dir.sanctioned[0].xrp[0])),
            Some(Category::SanctionedEntity)
        );
    }

    #[test]
    fn exchange_btc_addresses_form_one_cluster() {
        let (dir, chains, _) = build();
        let clustering = ClusterView::build(&chains.btc);
        let ex = &dir.exchanges[0];
        assert!(clustering.same_cluster(ex.btc[0], ex.btc[5]));
        assert!(clustering.same_cluster(ex.btc[0], ex.btc[23]));
        // Different exchanges stay separate.
        assert!(!clustering.same_cluster(ex.btc[0], dir.exchanges[1].btc[0]));
    }

    #[test]
    fn services_are_funded() {
        let (dir, chains, _) = build();
        // Exchange BTC balance exists somewhere in the cluster (a
        // consolidation moved coins around, so check the sum).
        let total: u64 = dir.exchanges[0]
            .btc
            .iter()
            .map(|&a| chains.btc.balance(a).0)
            .sum();
        assert!(total > 0);
        assert!(chains.eth.balance(dir.exchanges[0].eth[0]).0 > 0);
        assert!(chains.xrp.balance(dir.exchanges[0].xrp[0]).0 > 0);
    }

    #[test]
    fn random_category_lookup_matches_tags() {
        let (dir, _, tags) = build();
        let mut rng = RngFactory::new(5).rng("test");
        for category in [
            Category::Exchange,
            Category::Mixing,
            Category::TokenSmartContract,
            Category::SanctionedEntity,
            Category::Scam,
        ] {
            let addr = dir
                .random_of_category(category, Coin::Eth, &mut rng)
                .unwrap();
            assert_eq!(tags.category_direct(addr), Some(category));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _, _) = build();
        let (b, _, _) = build();
        assert_eq!(a.exchanges[0].btc, b.exchanges[0].btc);
    }
}
