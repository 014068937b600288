//! Model descriptors and the builder used by the zoo.
//!
//! A [`Model`] is an ordered list of [`Layer`]s (the framework's execution
//! order — paper §3 observes DNN training executes layers sequentially on
//! one or two CPU threads) plus training configuration: the optimizer and
//! the default mini-batch size used in the paper's evaluation.

use crate::layer::{Layer, LayerKind};
use crate::optimizer::Optimizer;
use crate::shapes::{conv2d_out_shape, pool2d_out_shape, Shape};
use daydream_trace::LayerId;
use serde::{Deserialize, Serialize};

/// The application domain of a model (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Application {
    /// ImageNet-style image classification.
    ImageClassification,
    /// Sequence-to-sequence machine translation.
    MachineTranslation,
    /// Masked / span language modeling.
    LanguageModeling,
}

impl Application {
    /// Human-readable domain name.
    pub fn name(&self) -> &'static str {
        match self {
            Application::ImageClassification => "Image Classification",
            Application::MachineTranslation => "Machine Translation",
            Application::LanguageModeling => "Language Modeling",
        }
    }
}

/// A complete model description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    /// Model name (e.g. `"ResNet-50"`).
    pub name: String,
    /// Layers in framework execution (forward) order.
    pub layers: Vec<Layer>,
    /// Optimizer used for training.
    pub optimizer: Optimizer,
    /// Mini-batch size used in the paper's evaluation.
    pub default_batch: u64,
    /// Application domain.
    pub application: Application,
    /// Dataset named in paper Table 2.
    pub dataset: String,
}

impl Model {
    /// Total learnable parameters.
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(|l| l.param_elems()).sum()
    }

    /// Number of learnable parameter tensors (drives optimizer kernel count).
    pub fn param_tensor_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_tensors().len()).sum()
    }

    /// Total gradient payload in bytes (FP32).
    pub fn gradient_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.gradient_bytes()).sum()
    }

    /// Looks up a layer by id. [`ModelBuilder`] numbers layers densely
    /// in order, so the id is first tried as a position; any other layout
    /// falls back to a scan.
    pub fn layer(&self, id: LayerId) -> Option<&Layer> {
        match self.layers.get(id.0 as usize) {
            Some(l) if l.id == id => Some(l),
            _ => self.layers.iter().find(|l| l.id == id),
        }
    }

    /// Layers owning parameters, in forward order.
    pub fn param_layers(&self) -> impl Iterator<Item = &Layer> {
        self.layers.iter().filter(|l| l.has_params())
    }

    /// Layers in backward execution order (reverse of forward).
    pub fn backward_order(&self) -> impl Iterator<Item = &Layer> {
        self.layers.iter().rev()
    }

    /// Total GPU kernels one weight-update step launches for this model.
    pub fn weight_update_kernels(&self) -> usize {
        self.optimizer.total_kernels(self.param_tensor_count())
    }

    /// Checks structural invariants: non-empty, unique ids, unique names.
    pub fn validate(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("model has no layers".into());
        }
        let mut ids: Vec<u32> = self.layers.iter().map(|l| l.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.layers.len() {
            return Err("duplicate layer ids".into());
        }
        let mut names: Vec<&str> = self.layers.iter().map(|l| l.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.layers.len() {
            return Err("duplicate layer names".into());
        }
        Ok(())
    }
}

/// Incremental model builder that threads activation shapes through layers.
///
/// # Examples
///
/// ```
/// use daydream_models::{ModelBuilder, LayerKind, ActKind, Optimizer, Application, Shape};
///
/// let model = ModelBuilder::new("tiny", Shape::chw(3, 32, 32))
///     .layer("conv1", LayerKind::Conv2d { in_ch: 3, out_ch: 8, kernel: 3, stride: 1, pad: 1, bias: false })
///     .layer("relu1", LayerKind::Activation { f: ActKind::ReLU })
///     .build(Optimizer::Sgd { momentum: true }, 32, Application::ImageClassification, "CIFAR-10");
/// assert_eq!(model.layers.len(), 2);
/// assert_eq!(model.param_count(), 3 * 8 * 9);
/// ```
pub struct ModelBuilder {
    name: String,
    layers: Vec<Layer>,
    cur: Shape,
    next_id: u32,
}

impl ModelBuilder {
    /// Starts a model with the given per-sample input shape.
    pub fn new(name: impl Into<String>, input: Shape) -> Self {
        ModelBuilder {
            name: name.into(),
            layers: Vec::new(),
            cur: input,
            next_id: 0,
        }
    }

    /// Current activation shape (input to the next layer).
    pub fn current_shape(&self) -> &Shape {
        &self.cur
    }

    /// Overrides the current activation shape (used for branch points such
    /// as residual downsample paths).
    pub fn set_shape(&mut self, shape: Shape) -> &mut Self {
        self.cur = shape;
        self
    }

    /// Appends a layer, inferring its output shape from the current shape.
    ///
    /// # Panics
    ///
    /// Panics if the layer kind cannot infer an output shape
    /// ([`LayerKind::Concat`] — use [`ModelBuilder::push_explicit`]).
    pub fn layer(mut self, name: impl Into<String>, kind: LayerKind) -> Self {
        self.push(name, kind);
        self
    }

    /// By-reference variant of [`ModelBuilder::layer`] for loops.
    pub fn push(&mut self, name: impl Into<String>, kind: LayerKind) -> &mut Self {
        let input = self.cur.clone();
        let output = infer_output(&kind, &input)
            .unwrap_or_else(|| panic!("layer kind {:?} needs an explicit output shape", kind));
        self.push_explicit(name, kind, input, output)
    }

    /// Appends a layer with explicit input and output shapes.
    pub fn push_explicit(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        input: Shape,
        output: Shape,
    ) -> &mut Self {
        let layer = Layer {
            id: LayerId(self.next_id),
            name: name.into(),
            kind,
            input,
            output: output.clone(),
        };
        self.next_id += 1;
        self.layers.push(layer);
        self.cur = output;
        self
    }

    /// Finishes the model.
    pub fn build(
        self,
        optimizer: Optimizer,
        default_batch: u64,
        application: Application,
        dataset: impl Into<String>,
    ) -> Model {
        let model = Model {
            name: self.name,
            layers: self.layers,
            optimizer,
            default_batch,
            application,
            dataset: dataset.into(),
        };
        debug_assert!(model.validate().is_ok());
        model
    }
}

/// Infers the output shape of a layer kind from its input shape, or `None`
/// if the kind requires an explicit shape.
fn infer_output(kind: &LayerKind, input: &Shape) -> Option<Shape> {
    match kind {
        LayerKind::Conv2d {
            out_ch,
            kernel,
            stride,
            pad,
            ..
        } => Some(conv2d_out_shape(input, *out_ch, *kernel, *stride, *pad)),
        LayerKind::Pool {
            kind,
            kernel,
            stride,
            pad,
        } => match kind {
            crate::layer::PoolKind::GlobalAvg => Some(Shape::chw(input.channels(), 1, 1)),
            _ => Some(pool2d_out_shape(input, *kernel, *stride, *pad)),
        },
        LayerKind::Linear {
            in_features,
            out_features,
            ..
        } => {
            if input.0.last() == Some(in_features) {
                // Per-timestep application: replace the feature dimension.
                let mut dims = input.0.clone();
                *dims.last_mut()? = *out_features;
                Some(Shape(dims))
            } else {
                // The framework flattens the input (e.g. after global pooling).
                debug_assert_eq!(input.numel(), *in_features, "linear input mismatch");
                Some(Shape::features(*out_features))
            }
        }
        LayerKind::Embedding { dim, .. } => {
            let mut dims = input.0.clone();
            dims.push(*dim);
            Some(Shape(dims))
        }
        LayerKind::Lstm {
            hidden,
            dirs,
            seq_len,
            ..
        } => Some(Shape::seq(*seq_len, hidden * dirs)),
        LayerKind::CrossEntropyLoss { .. } => Some(Shape::scalar()),
        LayerKind::Concat => None,
        // Shape-preserving layers.
        LayerKind::BatchNorm2d { .. }
        | LayerKind::Activation { .. }
        | LayerKind::Attention { .. }
        | LayerKind::LayerNorm { .. }
        | LayerKind::Softmax
        | LayerKind::Dropout
        | LayerKind::Add => Some(input.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ActKind;

    fn tiny() -> Model {
        ModelBuilder::new("tiny", Shape::chw(3, 32, 32))
            .layer(
                "conv1",
                LayerKind::Conv2d {
                    in_ch: 3,
                    out_ch: 8,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    bias: false,
                },
            )
            .layer("bn1", LayerKind::BatchNorm2d { channels: 8 })
            .layer("relu1", LayerKind::Activation { f: ActKind::ReLU })
            .layer(
                "pool",
                LayerKind::Pool {
                    kind: crate::layer::PoolKind::GlobalAvg,
                    kernel: 0,
                    stride: 0,
                    pad: 0,
                },
            )
            .layer(
                "fc",
                LayerKind::Linear {
                    in_features: 8,
                    out_features: 10,
                    bias: true,
                },
            )
            .layer("loss", LayerKind::CrossEntropyLoss { classes: 10 })
            .build(
                Optimizer::Sgd { momentum: true },
                32,
                Application::ImageClassification,
                "CIFAR-10",
            )
    }

    #[test]
    fn builder_threads_shapes() {
        let m = tiny();
        assert_eq!(m.layers[0].output, Shape::chw(8, 32, 32));
        assert_eq!(m.layers[3].output, Shape::chw(8, 1, 1));
        // GlobalAvgPool output flattens into the linear layer via numel.
        assert_eq!(m.layers[4].input.numel(), 8);
        assert_eq!(m.layers[5].output, Shape::scalar());
    }

    #[test]
    fn param_accounting() {
        let m = tiny();
        // conv 3*8*9 + bn 8+8 + fc 8*10+10.
        assert_eq!(m.param_count(), 216 + 16 + 90);
        assert_eq!(m.param_tensor_count(), 1 + 2 + 2);
        assert_eq!(m.gradient_bytes(), m.param_count() * 4);
        assert_eq!(m.weight_update_kernels(), 5 * 3 + 2);
    }

    #[test]
    fn validation_catches_duplicates() {
        let mut m = tiny();
        assert!(m.validate().is_ok());
        let dup = m.layers[0].clone();
        m.layers.push(dup);
        assert!(m.validate().is_err());
    }

    #[test]
    fn backward_order_is_reversed() {
        let m = tiny();
        let fwd: Vec<_> = m.layers.iter().map(|l| l.id).collect();
        let bwd: Vec<_> = m.backward_order().map(|l| l.id).collect();
        let mut rev = fwd.clone();
        rev.reverse();
        assert_eq!(bwd, rev);
    }

    #[test]
    fn layer_lookup() {
        let m = tiny();
        assert_eq!(m.layer(LayerId(2)).unwrap().name, "relu1");
        assert!(m.layer(LayerId(99)).is_none());
    }

    #[test]
    fn layer_lookup_matches_the_scan_on_every_zoo_model() {
        for m in crate::zoo::all_models() {
            for l in &m.layers {
                let scan = m.layers.iter().find(|x| x.id == l.id);
                assert_eq!(m.layer(l.id), scan, "{} layer {:?}", m.name, l.id);
            }
            let past_end = LayerId(m.layers.len() as u32);
            assert!(m.layer(past_end).is_none(), "{}", m.name);
        }
    }

    #[test]
    fn layer_lookup_falls_back_for_sparse_ids() {
        let mut m = tiny();
        m.layers.reverse();
        for (i, l) in m.layers.iter_mut().enumerate() {
            l.id = LayerId(10 * i as u32 + 1);
        }
        assert_eq!(m.layer(LayerId(11)).unwrap().id, LayerId(11));
        assert_eq!(m.layer(LayerId(1)).unwrap().id, LayerId(1));
        assert!(m.layer(LayerId(2)).is_none());
    }
}
